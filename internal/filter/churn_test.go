package filter

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

// Churn-oriented index tests: incremental Add, Remove, AddBatch and the
// concurrent MatchWith path must all agree with a from-scratch rebuild.

func TestIndexRemove(t *testing.T) {
	ix := NewIndex()
	ix.Add(1, MustParse("a < 5"))
	ix.Add(2, MustParse("a < 8"))
	ix.Add(3, nil)                   // wildcard
	ix.Add(4, MustParse("a != 3"))   // fallback
	ix.Add(5, MustParse("s == 'x'")) // string equality

	if !ix.Remove(2) {
		t.Fatal("Remove(2) = false, want true")
	}
	if ix.Remove(2) {
		t.Fatal("second Remove(2) = true, want false")
	}
	if ix.Len() != 4 {
		t.Fatalf("Len = %d, want 4", ix.Len())
	}
	got := ix.Match(iattrs("a", 4.0, "s", "x"))
	if !sameIDs(got, []int32{1, 3, 4, 5}) {
		t.Fatalf("match after Remove = %v, want [1 3 4 5]", got)
	}
	// Wildcard and fallback removals.
	ix.Remove(3)
	ix.Remove(4)
	got = ix.Match(iattrs("a", 4.0, "s", "x"))
	if !sameIDs(got, []int32{1, 5}) {
		t.Fatalf("match after wild/fallback Remove = %v, want [1 5]", got)
	}
	// Re-adding a removed id resurrects it.
	ix.Add(2, MustParse("a < 8"))
	got = ix.Match(iattrs("a", 4.0))
	if !sameIDs(got, []int32{1, 2}) {
		t.Fatalf("match after re-Add = %v, want [1 2]", got)
	}
}

func TestIndexAddBatch(t *testing.T) {
	srcs := []string{"a < 3", "a > 7", "a >= 2 && b <= 5", "s == 'k'", "true", "a != 1"}
	ids := make([]int32, len(srcs))
	filters := make([]*Filter, len(srcs))
	for i, s := range srcs {
		ids[i] = int32(i)
		filters[i] = MustParse(s)
	}
	batch := NewIndex()
	batch.AddBatch(ids, filters)
	serial := NewIndex()
	for i := range ids {
		serial.Add(ids[i], filters[i])
	}
	for _, a := range []iterMap{
		iattrs("a", 2.0, "b", 4.0, "s", "k"),
		iattrs("a", 9.0),
		iattrs("b", 1.0, "s", "z"),
	} {
		got, want := batch.Match(a), serial.Match(a)
		if !sameIDs(got, want) {
			t.Fatalf("AddBatch disagreement on %v: %v vs %v", a, got, want)
		}
	}
}

// TestIndexChurnEquivalenceRandom is the churn property test: after any
// interleaving of Add, Remove and AddBatch, the incremental index must
// match a from-scratch rebuild of the surviving population — and both
// must match direct filter evaluation.
func TestIndexChurnEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	// grid draws from the half-unit grid messages also draw from, so
	// message values land exactly on bounds; fine draws off it.
	grid := func() float64 { return float64(r.Intn(21)) / 2 }
	fine := func() float64 {
		v, _ := strconv.ParseFloat(fmt.Sprintf("%.2f", 10*r.Float64()), 64)
		return v
	}
	bound := func() float64 {
		if r.Intn(2) == 0 {
			return grid()
		}
		return fine()
	}
	lowOp := func() string { return []string{">", ">="}[r.Intn(2)] }
	highOp := func() string { return []string{"<", "<="}[r.Intn(2)] }
	interval := func(attr string, lo, w float64) string {
		return fmt.Sprintf("%s %s %g && %s %s %g", attr, lowOp(), lo, attr, highOp(), lo+w)
	}
	mkFilter := func() *Filter {
		switch r.Intn(12) {
		case 0:
			return MustParse(fmt.Sprintf("A1 < %g && A2 < %g", bound(), bound()))
		case 1:
			return MustParse(fmt.Sprintf("A1 >= %g", bound()))
		case 2:
			return MustParse(fmt.Sprintf("A1 > %g || A2 <= %g", bound(), bound()))
		case 3:
			return MustParse(fmt.Sprintf("A1 != %g", bound())) // fallback
		case 4:
			return nil // wildcard
		case 5:
			return MustParse(fmt.Sprintf("tag == 'v%d' && A1 < %g", r.Intn(3), bound()))
		case 6: // two-sided interval, possibly of zero width
			return MustParse(interval("A1", bound(), float64(r.Intn(3))/2))
		case 7: // box
			return MustParse(interval("A1", bound(), 1+bound()/4) + " && " + interval("A2", bound(), 1+bound()/4))
		case 8: // numeric equality
			return MustParse(fmt.Sprintf("A1 == %g && A2 %s %g", grid(), highOp(), bound()))
		case 9: // wide among narrow
			return MustParse(interval("A1", -1000, 2000) + fmt.Sprintf(" && A2 > %g", bound()))
		case 10: // != mixed into an indexed conjunction
			return MustParse(interval("A1", bound(), 2) + fmt.Sprintf(" && A2 != %g && tag != 'v1'", grid()))
		default: // no indexable predicate
			return MustParse(fmt.Sprintf("A2 != %g && tag != 'v%d'", grid(), r.Intn(3)))
		}
	}
	value := func() float64 {
		if r.Intn(2) == 0 {
			return grid()
		}
		return 10 * r.Float64()
	}
	compacted := false
	for trial := 0; trial < 30; trial++ {
		ix := NewIndex()
		live := map[int32]*Filter{}
		nextID := int32(0)
		// Odd trials are removal-heavy, so dead conjunctions come to
		// outnumber live ones and the compaction sweep runs mid-churn.
		addCut, removeCut := 5, 8
		if trial%2 == 1 {
			addCut, removeCut = 3, 9
		}
		for op := 0; op < 400; op++ {
			switch k := r.Intn(10); {
			case k < addCut: // Add
				f := mkFilter()
				ix.Add(nextID, f)
				live[nextID] = f
				nextID++
			case k < removeCut: // Remove a random live id (or a missing one)
				if len(live) == 0 || k == removeCut-1 {
					ix.Remove(nextID + 1000) // no-op
					continue
				}
				for id := range live {
					dead := ix.deadConjs
					ix.Remove(id)
					compacted = compacted || ix.deadConjs < dead
					delete(live, id)
					break
				}
			default: // AddBatch of a few
				n := 1 + r.Intn(5)
				ids := make([]int32, n)
				fs := make([]*Filter, n)
				for i := 0; i < n; i++ {
					ids[i] = nextID
					fs[i] = mkFilter()
					live[nextID] = fs[i]
					nextID++
				}
				ix.AddBatch(ids, fs)
			}
		}
		// Rebuild from scratch and compare on random messages.
		rebuilt := NewIndex()
		for id, f := range live {
			rebuilt.Add(id, f)
		}
		for m := 0; m < 20; m++ {
			a := iattrs("A1", value(), "A2", value(), "tag", fmt.Sprintf("v%d", r.Intn(3)))
			got := append([]int32(nil), ix.Match(a)...)
			want := rebuilt.Match(a)
			if !sameIDs(got, want) {
				t.Fatalf("trial %d: incremental %v != rebuilt %v", trial, got, want)
			}
			gotSet := make(map[int32]bool, len(got))
			for _, id := range got {
				gotSet[id] = true
			}
			for id, f := range live {
				if f.Match(a) != gotSet[id] {
					t.Fatalf("trial %d: id %d (%s): direct=%v index=%v",
						trial, id, f.String(), f.Match(a), gotSet[id])
				}
			}
		}
	}
	if !compacted {
		t.Fatal("no trial ever compacted: the oracle never checked the sweep")
	}
}

// TestIndexTouchedListsOnly pins the churn property the access-predicate
// runs keep: only the run an Add actually lands in is ever merged (the
// original implementation re-sorted every bound list on every Add), and
// wildcard/fallback adds touch no run.
func TestIndexTouchedListsOnly(t *testing.T) {
	ix := NewIndex()
	// Seed the upper-bound run on attribute "b" and force it fully merged.
	for i := 0; i < 40; i++ {
		ix.Add(int32(i), MustParse(fmt.Sprintf("b < %d", i)))
	}
	ix.Flush()
	b := &ix.attrs[ix.slots["b"]].upper
	if len(b.tail) != 0 {
		t.Fatalf("b tail = %d after Flush, want 0", len(b.tail))
	}

	// Wildcard and fallback adds: no run created or touched.
	ix.Add(1000, nil)
	ix.Add(1001, MustParse("a != 3"))
	if ix.attrs[ix.slots["a"]] != nil || len(b.tail) != 0 {
		t.Fatal("wildcard/fallback adds touched a run")
	}

	// A burst of adds on attribute "a" merges a's run but must leave b's
	// run untouched.
	bLen := len(b.sorted)
	for i := 0; i < 100; i++ {
		ix.Add(int32(2000+i), MustParse(fmt.Sprintf("a < %d", i)))
	}
	b = &ix.attrs[ix.slots["b"]].upper
	if got := len(b.sorted); got != bLen {
		t.Fatalf("adds on 'a' modified 'b' run: %d -> %d", bLen, got)
	}
	if got := len(b.tail); got != 0 {
		t.Fatalf("adds on 'a' grew 'b' tail: %d", got)
	}
	if a := &ix.attrs[ix.slots["a"]].upper; len(a.sorted) == 0 || len(a.tail) >= 100 {
		t.Fatalf("100 adds on one attribute never merged its tail (sorted %d, tail %d)", len(a.sorted), len(a.tail))
	}
}

// TestIndexMatchWithConcurrent runs many matchers with private scratch
// against one shared index — the sharded live plane's read-lock pattern
// — and checks every matcher sees the identical result set. Run with
// -race this also proves MatchWith never writes index state.
func TestIndexMatchWithConcurrent(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 200; i++ {
		ix.Add(int32(i), MustParse(fmt.Sprintf("A1 < %d && A2 < %d", i%20, (i*7)%20)))
	}
	want := append([]int32(nil), ix.Match(iattrs("A1", 5.0, "A2", 5.0))...)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s MatchScratch
			for k := 0; k < 500; k++ {
				got := ix.MatchWith(&s, iattrs("A1", 5.0, "A2", 5.0))
				if !sameIDs(got, want) {
					errs <- fmt.Errorf("concurrent match %v != %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestIndexRemoveCompacts checks that heavy removal triggers the
// tombstone sweep (dead conjunction count returns to zero) and matching
// stays correct through it.
func TestIndexRemoveCompacts(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 500; i++ {
		ix.Add(int32(i), MustParse(fmt.Sprintf("A1 < %d", i)))
	}
	for i := 0; i < 400; i++ {
		ix.Remove(int32(i))
	}
	// Compaction triggers whenever dead conjunctions outnumber live ones
	// (past a floor of 64); only a sub-threshold residual may remain.
	live := len(ix.conjs) - ix.deadConjs
	if ix.deadConjs > 64 && ix.deadConjs > live {
		t.Fatalf("deadConjs = %d (live %d) after removing 400 of 500: compaction never ran",
			ix.deadConjs, live)
	}
	if len(ix.conjs) > 2*live+64 {
		t.Fatalf("conjs slab %d for %d live: tombstones not being swept", len(ix.conjs), live)
	}
	// The sweep reaches the run itself: the run holds no more entries
	// than the conjunction slab.
	if r := &ix.attrs[ix.slots["A1"]].upper; len(r.sorted)+len(r.tail) != len(ix.conjs) {
		t.Fatalf("A1 run holds %d entries for %d conjunctions: tombstones not swept from the run",
			len(r.sorted)+len(r.tail), len(ix.conjs))
	}
	got := ix.Match(iattrs("A1", 450.0))
	want := make([]int32, 0, 49)
	for i := int32(451); i < 500; i++ {
		want = append(want, i)
	}
	if !sameIDs(got, want) {
		t.Fatalf("post-compaction match returned %d ids, want %d", len(got), len(want))
	}
}
