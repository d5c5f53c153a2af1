package filter

import (
	"cmp"
	"math"
	"slices"
)

// Iterable is the attribute interface the index needs: lookup plus
// iteration over all attributes.
type Iterable interface {
	Attrs
	// Each calls fn for every attribute.
	Each(fn func(name string, v Value))
}

// Index is an access-predicate matching index over a set of filters.
// Each DNF conjunction is stored once, under one access predicate chosen
// by a fixed structural rule:
//
//  1. a string or numeric equality, kept in a per-attribute hash bucket;
//  2. otherwise a two-sided numeric interval, kept in a per-attribute run
//     sorted by lower bound — one run per power-of-two width class, each
//     with its own maximum width, so a wide interval never widens the
//     scan over narrow ones;
//  3. otherwise a one-sided bound: an upper bound in a run sorted by it,
//     whose satisfied entries are a suffix; a lower bound as an interval
//     of infinite width, whose class run is scanned as a prefix.
//
// The remaining numeric predicates are compiled at Add time into
// per-attribute intervals with inclusive/exclusive flags, the first
// stored beside the access entry; string and != terms are evaluated
// directly. A match tests the access predicate of the entries whose key
// can satisfy it — an interval run scans the lower bounds in
// [x − maxWidth, x] — and verifies only those that hold: O(log n) per
// run plus the candidates. Conjunctions with no indexable predicate
// (only != and string inequalities) go on a fallback list evaluated for
// every message, so Match always equals evaluating every filter directly.
//
// Mutations are incremental and sublinear: Add inserts into a small
// unsorted tail behind one run, merged only when it outgrows √n; Remove
// tombstones through per-id back-references (a match skips a tombstone
// with one flag test) and one O(n) sweep compacts when dead outnumber
// live; AddBatch sorts each touched run once. Matching never mutates the
// index, so concurrent matchers may share it, each with its own
// MatchScratch, while mutators synchronize externally (Add / Remove /
// AddBatch under a write lock, MatchWith under the read lock). Steady-
// state matching is allocation-free.
type Index struct {
	conjs []conjState
	// dead tombstones conjunctions, parallel to conjs: a compact slab, so
	// skipping a removed candidate costs one cached flag test.
	dead []bool
	// slots numbers every attribute a stored predicate names; attrs holds
	// the access structures per slot (nil if no conjunction uses it).
	slots map[string]int32
	attrs []*attrIndex
	// wild and fallback list the conjunctions every match visits:
	// wildcards, and those with no indexable predicate.
	wild     []int32
	fallback []int32

	// known maps each live id to its conjunctions — the back-references
	// Remove follows to tombstone them without rebuilding.
	known map[int32][]int32

	// deadConjs counts tombstones and drives compaction.
	deadConjs int

	// Id-density tracking for the dense emit-stamp fast path. Ids are
	// usually small and dense (routing tables use positions); an id
	// outside [0, denseLimit] flips matching to a map permanently.
	dense bool
	maxID int32

	// scratch backs the serial Match entry point.
	scratch MatchScratch
}

// denseLimit bounds the id-indexed stamp slice; ids beyond it (or
// negative) use the map fallback instead of a multi-megabyte slice.
const denseLimit = 1 << 20

// conjState is one stored conjunction: its id, and the constraints
// verified only once a candidate's entry has passed.
type conjState struct {
	id    int32      // caller's id for the owning filter
	more  []span     // numeric constraints beyond the entry's next
	other []slotPred // string and != terms, evaluated directly
}

// slotPred is a predicate verified against its attribute slot's value.
type slotPred struct {
	slot int32
	p    Predicate
}

// span is a compiled numeric constraint on one attribute: lo < x < hi,
// with each side inclusive when its flag is set. An unconstrained side
// is an infinite, inclusive bound.
type span struct {
	lo, hi     float64
	slot       int32
	loIn, hiIn bool
}

// holds reports whether x lies in the span; false for NaN.
func (sp *span) holds(x float64) bool {
	return (sp.lo < x || sp.loIn && sp.lo == x) && (x < sp.hi || sp.hiIn && x == sp.hi)
}

// tighten intersects the span with one numeric predicate (not NE): a
// higher lower bound or lower upper bound replaces the current one, and
// an exclusive bound equal to it makes that side exclusive.
func (sp *span) tighten(op Op, b float64) {
	if op != LT && op != LE && (b > sp.lo || b == sp.lo && op == GT) {
		sp.lo, sp.loIn = b, op != GT
	}
	if op != GT && op != GE && (b < sp.hi || b == sp.hi && op == LT) {
		sp.hi, sp.hiIn = b, op != LT
	}
}

func (sp *span) empty() bool {
	return sp.lo > sp.hi || sp.lo == sp.hi && !(sp.loIn && sp.hiIn)
}

func (sp *span) hasLo() bool { return sp.lo != math.Inf(-1) || !sp.loIn }
func (sp *span) hasHi() bool { return sp.hi != math.Inf(1) || !sp.hiIn }

// width bounds hi − lo of an interval (lo < hi) from above under float
// rounding: the rounded difference moved up one ulp (+Inf when either
// bound is infinite or the difference overflows).
func (sp *span) width() float64 {
	return math.Nextafter(sp.hi-sp.lo, math.Inf(1))
}

// scanStart is a lower limit for the lower bound of any interval that
// contains x and whose width() is at most w: x − w, moved down one ulp so
// rounding in the subtraction never raises it above the exact value.
func scanStart(x, w float64) float64 {
	if math.IsInf(w, 1) {
		return math.Inf(-1)
	}
	return math.Nextafter(x-w, math.Inf(-1))
}

// widthClass buckets interval runs by the binary exponent of their
// width, with infinite widths in a class of their own.
func widthClass(w float64) int {
	if math.IsInf(w, 1) {
		return math.MaxInt
	}
	_, e := math.Frexp(w)
	return e
}

// entry is one conjunction stored under its access predicate, with its
// next numeric constraint compiled beside it — the box and paper filter
// shapes have at most one, so verifying them reads one cache line.
type entry struct {
	key  float64 // sort key: acc.hi in an upper-bound run, else acc.lo
	acc  span
	next span // next.slot < 0: no other numeric constraint
	ci   int32
}

// attrIndex holds the conjunctions accessed through one attribute.
type attrIndex struct {
	eq    map[Value][]entry // string and numeric equalities
	upper run               // upper bounds, keyed by hi
	spans []run             // intervals and lower bounds, by width class
}

// run is a run sorted by key plus an unsorted tail of recent inserts.
// The tail is merged into the run when it outgrows √(run length), so
// inserts stay cheap and lookups stay logarithmic plus a bounded scan.
type run struct {
	sorted []entry
	tail   []entry
	// Interval runs: the width class, and a bound on every width() in it.
	class int
	maxW  float64
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{
		slots: make(map[string]int32),
		known: make(map[int32][]int32),
		dense: true,
	}
}

// Len returns the number of distinct live filter ids (indexed +
// wildcard + fallback).
func (ix *Index) Len() int { return len(ix.known) }

// Add registers a filter under the caller's id. Ids may repeat (a
// subscription re-added is matched once per Match call regardless).
// Mutations (Add, AddBatch, Remove) must be serialized with each other
// and exclude concurrent matchers.
func (ix *Index) Add(id int32, f *Filter) {
	ix.addOne(id, f, false)
}

// AddBatch registers many filters at once, deferring every run merge so
// each touched run is sorted exactly once at the end — the bulk-build
// path. ids and filters are parallel slices.
func (ix *Index) AddBatch(ids []int32, filters []*Filter) {
	if len(ids) != len(filters) {
		panic("filter: AddBatch slice lengths differ")
	}
	for i := range ids {
		ix.addOne(ids[i], filters[i], true)
	}
	ix.Flush()
}

func (ix *Index) addOne(id int32, f *Filter, batch bool) {
	if _, ok := ix.known[id]; !ok {
		ix.known[id] = nil
	}
	if id < 0 || id > denseLimit {
		ix.dense = false
	} else if id > ix.maxID {
		ix.maxID = id
	}
	for _, conj := range f.DNF() {
		ix.addConj(id, conj, batch)
	}
}

// addConj compiles one conjunction and stores it under its access
// predicate. A conjunction no value can satisfy (a NaN bound, or an
// empty interval) is not stored: it never matches.
func (ix *Index) addConj(id int32, conj []Predicate, batch bool) {
	var spans []span
	var other []slotPred
	for _, p := range conj {
		slot := ix.slot(p.Attr)
		if p.Val.Kind == String || p.Op == NE {
			other = append(other, slotPred{slot, p})
			continue
		}
		if math.IsNaN(p.Val.Num) {
			return
		}
		i := slices.IndexFunc(spans, func(sp span) bool { return sp.slot == slot })
		if i < 0 {
			i = len(spans)
			spans = append(spans, span{lo: math.Inf(-1), hi: math.Inf(1), slot: slot, loIn: true, hiIn: true})
		}
		spans[i].tighten(p.Op, p.Val.Num)
	}
	if slices.ContainsFunc(spans, func(sp span) bool { return sp.empty() }) {
		return
	}

	ci := int32(len(ix.conjs))
	ix.known[id] = append(ix.known[id], ci)
	ix.dead = append(ix.dead, false)
	c := conjState{id: id, other: other}
	e := entry{next: span{slot: -1}, ci: ci}
	// The access predicate: a string equality, else a numeric equality,
	// else the first two-sided interval, else the first one-sided bound.
	str := slices.IndexFunc(other, func(o slotPred) bool { return o.p.Op == EQ })
	var key Value // the equality's value, for a bucket access
	if str >= 0 {
		e.acc.slot, key = other[str].slot, Str(other[str].p.Val.Str)
		c.other = slices.Delete(other, str, str+1)
	} else if a := accessSpan(spans); a >= 0 {
		e.acc, key = spans[a], Num(spans[a].lo)
		spans = slices.Delete(spans, a, a+1)
	} else {
		ix.conjs = append(ix.conjs, c)
		if len(other) == 0 {
			ix.wild = append(ix.wild, ci)
		} else {
			ix.fallback = append(ix.fallback, ci)
		}
		return
	}
	if len(spans) > 0 {
		e.next, spans = spans[0], spans[1:]
		if len(spans) > 0 {
			c.more = spans
		}
	}
	ix.conjs = append(ix.conjs, c)

	ax := ix.access(e.acc.slot)
	switch acc := &e.acc; {
	case str >= 0 || acc.lo == acc.hi:
		if ax.eq == nil {
			ax.eq = make(map[Value][]entry)
		}
		ax.eq[key] = append(ax.eq[key], e)
	case !acc.hasLo():
		e.key = acc.hi
		ax.upper.insert(e, batch)
	default:
		e.key = acc.lo
		w := acc.width()
		class := widthClass(w)
		i := slices.IndexFunc(ax.spans, func(r run) bool { return r.class == class })
		if i < 0 {
			i = len(ax.spans)
			ax.spans = append(ax.spans, run{class: class})
		}
		ax.spans[i].maxW = max(ax.spans[i].maxW, w)
		ax.spans[i].insert(e, batch)
	}
}

// accessSpan picks the access predicate among the numeric spans: the
// first equality, else the first two-sided interval, else the first
// one-sided bound; -1 when there is none.
func accessSpan(spans []span) int {
	if a := slices.IndexFunc(spans, func(sp span) bool { return sp.lo == sp.hi }); a >= 0 {
		return a
	}
	if a := slices.IndexFunc(spans, func(sp span) bool { return sp.hasLo() && sp.hasHi() }); a >= 0 {
		return a
	}
	if len(spans) > 0 {
		return 0
	}
	return -1
}

// slot returns (assigning) the attribute's slot number.
func (ix *Index) slot(name string) int32 {
	s, ok := ix.slots[name]
	if !ok {
		s = int32(len(ix.attrs))
		ix.slots[name] = s
		ix.attrs = append(ix.attrs, nil)
	}
	return s
}

// access returns (creating) the access structures of a slot.
func (ix *Index) access(slot int32) *attrIndex {
	if ix.attrs[slot] == nil {
		ix.attrs[slot] = &attrIndex{}
	}
	return ix.attrs[slot]
}

// insert appends an entry to the run's tail, merging when the tail
// outgrows √(run length) — unless the caller batches, in which case the
// merge is deferred to Flush. Small runs merge eagerly past a constant
// floor so lookups on young attributes stay mostly sorted.
func (r *run) insert(e entry, batch bool) {
	r.tail = append(r.tail, e)
	if t := len(r.tail); !batch && t >= 16 && t*t > len(r.sorted) {
		r.merge()
	}
}

// merge folds the unsorted tail into the sorted run: sort the tail, then
// one backward in-place merge — O(n + t log t), the single sort this run
// pays for the last t inserts.
func (r *run) merge() {
	t := len(r.tail)
	if t == 0 {
		return
	}
	slices.SortFunc(r.tail, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	n := len(r.sorted)
	r.sorted = append(r.sorted, r.tail...)
	// Backward merge: dest k always sits at or beyond read index i, so
	// writing into the same array is safe.
	i, j := n-1, t-1
	for k := n + t - 1; j >= 0; k-- {
		if i >= 0 && r.sorted[i].key > r.tail[j].key {
			r.sorted[k] = r.sorted[i]
			i--
		} else {
			r.sorted[k] = r.tail[j]
			j--
		}
	}
	r.tail = r.tail[:0]
}

// Flush merges every pending tail into its sorted run (each touched run
// sorted once). AddBatch calls it; callers that interleave Add bursts
// with latency-critical matching may call it at a quiet moment.
func (ix *Index) Flush() {
	for _, ax := range ix.attrs {
		if ax != nil {
			ax.upper.merge()
			for i := range ax.spans {
				ax.spans[i].merge()
			}
		}
	}
}

// Remove deletes every registration of an id — indexed conjunctions,
// wildcards and fallbacks — and reports whether the id was present.
// Conjunctions are tombstoned through the id's back-references without
// touching the runs; the runs are compacted in one sweep only when dead
// conjunctions outnumber live ones.
func (ix *Index) Remove(id int32) bool {
	cis, ok := ix.known[id]
	if !ok {
		return false
	}
	delete(ix.known, id)
	for _, ci := range cis {
		ix.dead[ci] = true
	}
	ix.deadConjs += len(cis)
	if ix.deadConjs > 64 && 2*ix.deadConjs > len(ix.conjs) {
		ix.compact()
	}
	return true
}

// compact squeezes tombstoned conjunctions out of every structure in one
// O(conjunctions) sweep, restoring the memory and match cost of a fresh
// build. Amortized across the removals that triggered it, the sweep is
// O(1) per removal.
func (ix *Index) compact() {
	remap := make([]int32, len(ix.conjs))
	live := int32(0)
	for i := range ix.conjs {
		if ix.dead[i] {
			remap[i] = -1
			continue
		}
		remap[i] = live
		ix.conjs[live] = ix.conjs[i]
		live++
	}
	clear(ix.conjs[live:])
	clear(ix.dead)
	ix.conjs = ix.conjs[:live]
	ix.dead = ix.dead[:live]

	for _, ax := range ix.attrs {
		if ax == nil {
			continue
		}
		ax.upper.compact(remap)
		spans := ax.spans[:0]
		for _, r := range ax.spans {
			if r.compact(remap); len(r.sorted) > 0 {
				spans = append(spans, r)
			}
		}
		ax.spans = spans
		for k, es := range ax.eq {
			if es = remapEntries(es, remap); len(es) == 0 {
				delete(ax.eq, k)
			} else {
				ax.eq[k] = es
			}
		}
	}
	ix.wild = remapConjs(ix.wild, remap)
	ix.fallback = remapConjs(ix.fallback, remap)
	for id, cis := range ix.known {
		ix.known[id] = remapConjs(cis, remap)
	}
	ix.deadConjs = 0
}

// compact folds the tail in and drops tombstoned entries.
func (r *run) compact(remap []int32) {
	r.merge()
	r.sorted = remapEntries(r.sorted, remap)
}

func remapEntries(es []entry, remap []int32) []entry {
	for i := range es {
		es[i].ci = remap[es[i].ci]
	}
	return slices.DeleteFunc(es, func(e entry) bool { return e.ci < 0 })
}

func remapConjs(cis []int32, remap []int32) []int32 {
	for i, ci := range cis {
		cis[i] = remap[ci]
	}
	return slices.DeleteFunc(cis, func(ci int32) bool { return ci < 0 })
}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

// MatchScratch is one matcher's private epoch-stamped state — the
// message's values by attribute slot and the output's dedup stamps;
// nothing is cleared between matches. Concurrent matchers share one
// Index by bringing one MatchScratch each (the zero value is ready).
type MatchScratch struct {
	ix    *Index
	epoch uint64
	// The message's value per attribute slot, current when its valAt
	// stamp equals epoch; present lists those slots in message order.
	vals    []Value
	valAt   []uint64
	present []int32
	// Output dedup: dense ids stamp a slice, sparse ids a map.
	emittedAt  []uint64
	emittedMap map[int32]uint64
	out        []int32

	// visit bound once so Match passes a preallocated callback to Each.
	visitor func(name string, v Value)

	scanned int // access-predicate tests in runs (diagnostics)
}

// Match returns the ids whose filters match the attributes, each at most
// once: indexed conjunctions attribute by attribute, then wildcards and
// fallback conjunctions in add order.
//
// The returned slice is a buffer owned by the index, valid until the
// next Match call. Callers may reorder it in place but must not append
// to it or retain it across matches. Match requires exclusive use of the
// index (it shares the index-owned scratch); concurrent matchers use
// MatchWith instead.
func (ix *Index) Match(a Iterable) []int32 { return ix.MatchWith(&ix.scratch, a) }

// MatchWith is Match through a caller-owned scratch: any number of
// matchers may run concurrently against one index, each with its own
// scratch, as long as no mutation (Add / AddBatch / Remove) is in
// flight. The returned slice is owned by the scratch.
func (ix *Index) MatchWith(s *MatchScratch, a Iterable) []int32 {
	s.ix = ix
	if s.visitor == nil {
		s.visitor = s.visit
	}
	s.epoch++
	s.vals = grow(s.vals, len(ix.attrs))
	s.valAt = grow(s.valAt, len(ix.attrs))
	s.present = s.present[:0]
	if ix.dense {
		s.emittedAt = grow(s.emittedAt, int(ix.maxID)+1)
	} else if s.emittedMap == nil {
		s.emittedMap = make(map[int32]uint64)
	}
	s.out = s.out[:0]
	a.Each(s.visitor)

	for _, slot := range s.present {
		if ax := ix.attrs[slot]; ax != nil {
			s.match(ax, s.vals[slot])
		}
	}
	for _, ci := range ix.wild {
		if !ix.dead[ci] {
			s.emit(ix.conjs[ci].id)
		}
	}
	for _, ci := range ix.fallback {
		if !ix.dead[ci] {
			s.finish(ci)
		}
	}
	return s.out
}

// visit records one message attribute in its slot; attributes no stored
// predicate names are ignored, and a repeated name keeps its first value
// (as Attrs lookup does).
func (s *MatchScratch) visit(name string, v Value) {
	slot, ok := s.ix.slots[name]
	if !ok || s.valAt[slot] == s.epoch {
		return
	}
	s.valAt[slot] = s.epoch
	s.vals[slot] = v
	s.present = append(s.present, slot)
}

// match visits the conjunctions accessed through one attribute whose
// access predicate the value satisfies.
func (s *MatchScratch) match(ax *attrIndex, v Value) {
	if v.Kind == String {
		s.verifyAll(ax.eq[Str(v.Str)])
		return
	}
	x := v.Num
	if math.IsNaN(x) {
		return // NaN satisfies no numeric predicate
	}
	s.verifyAll(ax.eq[Num(x)])
	ax.upper.scan(s, x, math.Inf(1), x)
	for i := range ax.spans {
		r := &ax.spans[i]
		r.scan(s, scanStart(x, r.maxW), x, x)
	}
}

// scan tests the access predicate of every sorted entry whose key lies
// in [from, to] and of every tail entry, verifying those that hold x.
func (r *run) scan(s *MatchScratch, from, to, x float64) {
	lo, hi := 0, len(r.sorted)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.sorted[m].key < from {
			lo = m + 1
		} else {
			hi = m
		}
	}
	i := lo
	for ; i < len(r.sorted) && r.sorted[i].key <= to; i++ {
		if e := &r.sorted[i]; e.acc.holds(x) {
			s.verify(e)
		}
	}
	for j := range r.tail {
		if e := &r.tail[j]; e.acc.holds(x) {
			s.verify(e)
		}
	}
	s.scanned += i - lo + len(r.tail)
}

// verifyAll verifies every entry of an equality bucket, whose access
// predicate the lookup itself established.
func (s *MatchScratch) verifyAll(bucket []entry) {
	for i := range bucket {
		s.verify(&bucket[i])
	}
}

// verify checks a candidate whose access predicate holds. The entry's
// own next constraint rejects most candidates first; a tombstone is then
// skipped with one flag test, before the conjunction record is read.
func (s *MatchScratch) verify(e *entry) {
	if e.next.slot >= 0 && !s.holds(&e.next) || s.ix.dead[e.ci] {
		return
	}
	s.finish(e.ci)
}

// finish checks a live conjunction's remaining constraints and emits its
// id when all hold.
func (s *MatchScratch) finish(ci int32) {
	c := &s.ix.conjs[ci]
	for i := range c.more {
		if !s.holds(&c.more[i]) {
			return
		}
	}
	for i := range c.other {
		o := &c.other[i]
		if s.valAt[o.slot] != s.epoch || !o.p.MatchValue(s.vals[o.slot]) {
			return
		}
	}
	s.emit(c.id)
}

// holds reports whether the message carries a number satisfying sp.
func (s *MatchScratch) holds(sp *span) bool {
	v := &s.vals[sp.slot]
	return s.valAt[sp.slot] == s.epoch && v.Kind == Number && sp.holds(v.Num)
}

// emit appends an id to the output unless it was already emitted this
// epoch.
func (s *MatchScratch) emit(id int32) {
	if s.ix.dense {
		if s.emittedAt[id] == s.epoch {
			return
		}
		s.emittedAt[id] = s.epoch
	} else {
		if s.emittedMap[id] == s.epoch {
			return
		}
		s.emittedMap[id] = s.epoch
	}
	s.out = append(s.out, id)
}
