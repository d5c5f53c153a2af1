package filter

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Tests pinning the access-predicate index's edge cases: conservative
// scan starts under rounding, width classes, compiled verification
// semantics, the fallback rule, and NaN/±Inf agreement with Filter.Match.

// checkIndex asserts that the index emits exactly the live ids whose
// filters match a, each once.
func checkIndex(t *testing.T, ix *Index, live map[int32]*Filter, a iterMap) {
	t.Helper()
	got := make(map[int32]int)
	for _, id := range ix.Match(a) {
		got[id]++
	}
	for id, n := range got {
		if _, ok := live[id]; !ok || n > 1 {
			t.Fatalf("attrs %v: id %d emitted %d times (live=%v)", a.AttrMap, id, n, ok)
		}
	}
	for id, f := range live {
		if want := f.Match(a); want != (got[id] == 1) {
			t.Fatalf("attrs %v: id %d (%s): direct=%v index=%v", a.AttrMap, id, f, want, !want)
		}
	}
}

// TestIndexScanStartUlp pins the interval scan's lower limit x − maxWidth
// as conservative under float rounding: an interval whose rounded width
// falls short of the exact one, and intervals whose bounds are one ulp
// apart, are still found at each of their bounds.
func TestIndexScanStartUlp(t *testing.T) {
	// 2^53+2 − 1 = 2^53+1 is not representable and rounds down to 2^53,
	// so an unrounded x − width at x = hi lands above lo = 1.
	big := math.Ldexp(1, 53) + 2
	pairs := [][2]float64{{1, big}, {-big, -1}}
	for _, b := range []float64{0, 1, -1, 0.1, 1e-300, 1e300, math.Ldexp(1, 53), math.SmallestNonzeroFloat64, -math.MaxFloat64} {
		pairs = append(pairs, [2]float64{b, math.Nextafter(b, math.Inf(1))})
	}
	ix := NewIndex()
	live := make(map[int32]*Filter)
	var probes []float64
	for i, p := range pairs {
		lo, hi := p[0], p[1]
		for k, ops := range [][2]Op{{GE, LE}, {GT, LE}, {GE, LT}, {GT, LT}} {
			f := And(NewPred("a", ops[0], Num(lo)), NewPred("a", ops[1], Num(hi)))
			id := int32(4*i + k)
			ix.Add(id, f)
			live[id] = f
		}
		probes = append(probes, math.Nextafter(lo, math.Inf(-1)), lo, hi, math.Nextafter(hi, math.Inf(1)))
	}
	for _, x := range probes {
		checkIndex(t, ix, live, iattrs("a", x))
	}

	// The limit itself, over random magnitudes: never above the lower
	// bound of an interval containing x.
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100000; i++ {
		lo := r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
		hi := lo + math.Abs(r.NormFloat64())*math.Pow(10, float64(r.Intn(40)-20))
		if !(lo < hi) {
			continue
		}
		sp := span{lo: lo, hi: hi}
		for _, x := range []float64{lo, hi, lo + (hi-lo)/2} {
			if x >= lo && x <= hi && scanStart(x, sp.width()) > lo {
				t.Fatalf("scanStart(%v, width(%v, %v)) = %v above lo", x, lo, hi, scanStart(x, sp.width()))
			}
		}
	}
}

// TestIndexWideIntervalAmongNarrow pins the width classes: one very wide
// interval among 10k narrow ones must not turn every lookup into a scan
// of the narrow run.
func TestIndexWideIntervalAmongNarrow(t *testing.T) {
	ix := NewIndex()
	for i := 0; i < 10000; i++ {
		ix.Add(int32(i), MustParse(fmt.Sprintf("a > %d && a < %d", i, i+1)))
	}
	const wide = 10000
	ix.Add(wide, MustParse("a > -1e9 && a < 1e9"))
	ix.Flush() // count sorted-run candidates only, not the √n insert tail
	var s MatchScratch
	for _, x := range []float64{0.5, 5000.5, 9999.5} {
		before := s.scanned
		got := ix.MatchWith(&s, iattrs("a", x))
		if !sameIDs(got, []int32{int32(x), wide}) {
			t.Fatalf("a=%v: match %v", x, got)
		}
		if n := s.scanned - before; n > 3 {
			t.Fatalf("a=%v: %d candidates tested, want ≤ 3 (the wide interval widened the narrow scan)", x, n)
		}
	}
}

// TestIndexCompiledVerification pins compiled verification to
// Predicate.MatchValue exactly: every pair of numeric predicates on one
// attribute, inclusive and exclusive, including equal bounds, compiled
// into one span — and, through the index, with either one as the access
// predicate.
func TestIndexCompiledVerification(t *testing.T) {
	bounds := []float64{-1, 0, 1, math.Nextafter(1, 2), math.Inf(1), math.Inf(-1)}
	values := append([]float64{math.NaN(), math.Copysign(0, -1), math.Nextafter(1, 0), 2, -2}, bounds...)
	ops := []Op{LT, LE, GT, GE, EQ}
	ix := NewIndex()
	live := make(map[int32]*Filter)
	id := int32(0)
	for _, op1 := range ops {
		for _, b1 := range bounds {
			for _, op2 := range ops {
				for _, b2 := range bounds {
					p1 := Predicate{Attr: "a", Op: op1, Val: Num(b1)}
					p2 := Predicate{Attr: "a", Op: op2, Val: Num(b2)}
					sp := span{lo: math.Inf(-1), hi: math.Inf(1), loIn: true, hiIn: true}
					sp.tighten(op1, b1)
					sp.tighten(op2, b2)
					for _, v := range values {
						want := p1.MatchValue(Num(v)) && p2.MatchValue(Num(v))
						if got := sp.holds(v); got != want {
							t.Fatalf("%v && %v at a=%v: span=%v MatchValue=%v", p1, p2, v, got, want)
						}
						if want && sp.empty() {
							t.Fatalf("%v && %v: span reported empty but a=%v matches", p1, p2, v)
						}
					}
					// Access on a, verification on b — and the other way round.
					f := And(NewPred("a", op1, Num(b1)), NewPred("b", op2, Num(b2)))
					ix.Add(id, f)
					live[id] = f
					id++
				}
			}
		}
	}
	for _, av := range values {
		for _, bv := range values {
			checkIndex(t, ix, live, iattrs("a", av, "b", bv))
		}
	}
}

// TestIndexFallbackOnlyWithoutIndexablePredicate pins the fallback rule:
// a conjunction with any indexable predicate is indexed, its != and
// string-inequality terms verified like the rest; only conjunctions with
// no indexable predicate are evaluated for every message.
func TestIndexFallbackOnlyWithoutIndexablePredicate(t *testing.T) {
	srcs := []string{
		"a != 3 && b < 5",              // indexed under b
		"s != 'x' && t == 'y'",         // indexed under t
		"s < 'm' && a >= 1",            // indexed under a
		"a != 3",                       // fallback
		"s < 'x'",                      // fallback
		"a != 1 && s != 'q'",           // fallback
		"a != 3 || (b == 2 && a != 2)", // one of each
	}
	ix := NewIndex()
	live := make(map[int32]*Filter)
	for i, src := range srcs {
		live[int32(i)] = MustParse(src)
		ix.Add(int32(i), live[int32(i)])
	}
	if len(ix.fallback) != 4 {
		t.Fatalf("fallback holds %d conjunctions, want 4", len(ix.fallback))
	}
	for _, av := range []float64{1, 2, 3} {
		for _, bv := range []float64{2, 7} {
			for _, sv := range []string{"a", "q", "x", "z"} {
				checkIndex(t, ix, live, iattrs("a", av, "b", bv, "s", sv, "t", "y"))
			}
		}
	}
}

// TestIndexNaNAndInf pins the NaN rule — NaN satisfies no numeric
// predicate — in Filter.Match and the index alike, and their agreement
// on ±Inf attribute values and bounds.
func TestIndexNaNAndInf(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, src := range []string{"a <= 5", "a >= 5", "a == 5", "a != 5", "a < 5", "a > 5"} {
		if MustParse(src).Match(attrs("a", nan)) {
			t.Errorf("%s matches a = NaN", src)
		}
	}
	ix := NewIndex()
	live := make(map[int32]*Filter)
	id := int32(0)
	for _, op := range []Op{LT, LE, GT, GE, EQ, NE} {
		for _, b := range []float64{5, inf, -inf, nan} {
			for _, f := range []*Filter{
				NewPred("a", op, Num(b)),
				And(NewPred("a", op, Num(b)), Lt("b", 1)),
				And(Gt("b", -1), NewPred("a", op, Num(b))),
				And(Gt("a", -inf), NewPred("a", op, Num(b))),
			} {
				ix.Add(id, f)
				live[id] = f
				id++
			}
		}
	}
	for _, v := range []float64{nan, inf, -inf, 5, 0} {
		checkIndex(t, ix, live, iattrs("a", v, "b", 0.0))
		checkIndex(t, ix, live, iattrs("a", v, "b", v))
	}
}

// fuzzNums is the fuzz target's value palette: bounds and attribute
// values share it, so values land on bounds, on their ulp neighbours,
// and on NaN, ±0 and ±Inf.
var fuzzNums = []float64{
	0, math.Copysign(0, -1), 1, math.Nextafter(1, 2), math.Nextafter(1, 0), 2,
	math.Nextafter(2, 3), -1, 0.5, 1e300, -1e300, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Ldexp(1, 53), math.Ldexp(1, 53) + 2,
}

// fuzzDraw decodes fuzz input into filters, operations and messages.
type fuzzDraw struct{ b []byte }

func (d *fuzzDraw) next() byte {
	if len(d.b) == 0 {
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *fuzzDraw) num() float64 { return fuzzNums[int(d.next())%len(fuzzNums)] }

func (d *fuzzDraw) pred() *Filter {
	c := d.next()
	op := Op(c / 3 % 6)
	if attr := []string{"a", "b", "s"}[c%3]; attr != "s" {
		return NewPred(attr, op, Num(d.num()))
	}
	return NewPred("s", op, Str([]string{"x", "y"}[c/18%2]))
}

func (d *fuzzDraw) conj() *Filter {
	fs := make([]*Filter, 1+d.next()%4)
	for i := range fs {
		fs[i] = d.pred()
	}
	return And(fs...)
}

func (d *fuzzDraw) filter() *Filter {
	switch c := d.next(); {
	case c%16 == 0:
		return nil // wildcard
	case c%4 == 1:
		return Or(d.conj(), d.conj())
	default:
		return d.conj()
	}
}

func (d *fuzzDraw) attrs() iterMap {
	m := AttrMap{}
	c := d.next()
	if c&1 != 0 {
		m["a"] = Num(d.num())
	}
	if c&2 != 0 {
		m["b"] = Num(d.num())
	}
	switch {
	case c&4 != 0:
		m["s"] = Str([]string{"x", "y", "z"}[c>>6%3])
	case c&8 != 0:
		m["s"] = Num(d.num()) // cross-kind
	}
	if c&16 != 0 {
		m["a"] = Str("x") // cross-kind
	}
	return iterMap{m}
}

// FuzzIndexMatch checks Index ≡ Filter.Match over random conjunctions
// and Add/Remove interleavings, with attribute values including NaN,
// ±Inf and ulp neighbours of bounds.
func FuzzIndexMatch(f *testing.F) {
	f.Add([]byte{0, 7, 1, 20, 3, 40, 3, 1, 9})
	f.Add([]byte{1, 2, 5, 3, 33, 2, 9, 1, 1, 2, 3, 4, 5, 3, 11, 2, 0, 3, 3})
	f.Add([]byte{0, 1, 3, 4, 5, 6, 7, 0, 4, 2, 8, 10, 12, 14, 3, 3, 5, 5, 2, 1, 3, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &fuzzDraw{b: data}
		ix := NewIndex()
		live := make(map[int32]*Filter)
		id := int32(0)
		for len(d.b) > 0 {
			switch d.next() % 4 {
			case 0, 1:
				fl := d.filter()
				ix.Add(id, fl)
				live[id] = fl
				id++
			case 2:
				rid := int32(d.next()) % (id + 1)
				_, ok := live[rid]
				if ix.Remove(rid) != ok {
					t.Fatalf("Remove(%d) disagrees with liveness %v", rid, ok)
				}
				delete(live, rid)
			default:
				checkIndex(t, ix, live, d.attrs())
			}
		}
		if ix.Len() != len(live) {
			t.Fatalf("Len = %d, want %d", ix.Len(), len(live))
		}
	})
}
