package truth

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/alloctest"
)

func randomTT(rng *rand.Rand, n int) TT {
	t := New(n)
	for i := range t.Words {
		t.Words[i] = rng.Uint64()
	}
	return t
}

func TestVarPatterns(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for v := 0; v < n; v++ {
			tt := Var(n, v)
			for m := 0; m < 1<<n; m++ {
				want := m>>uint(v)&1 != 0
				if tt.Bit(m) != want {
					t.Fatalf("Var(%d,%d) bit %d = %v", n, v, m, tt.Bit(m))
				}
			}
		}
	}
}

func TestBoolOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 6, 8} {
		x, y := randomTT(rng, n), randomTT(rng, n)
		and := New(n).And(x, y)
		or := New(n).Or(x, y)
		xor := New(n).Xor(x, y)
		not := New(n).Not(x)
		andnot := New(n).AndNot(x, y)
		for m := 0; m < 1<<n; m++ {
			a, b := x.Bit(m), y.Bit(m)
			if and.Bit(m) != (a && b) || or.Bit(m) != (a || b) ||
				xor.Bit(m) != (a != b) || not.Bit(m) != !a ||
				andnot.Bit(m) != (a && !b) {
				t.Fatalf("n=%d op mismatch at minterm %d", n, m)
			}
		}
	}
}

func TestCofactors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 7, 9} {
		x := randomTT(rng, n)
		for v := 0; v < n; v++ {
			c0 := New(n).Cofactor0(x, v)
			c1 := New(n).Cofactor1(x, v)
			for m := 0; m < 1<<n; m++ {
				m0 := m &^ (1 << uint(v))
				m1 := m | 1<<uint(v)
				if c0.Bit(m) != x.Bit(m0) {
					t.Fatalf("n=%d v=%d cofactor0 bit %d", n, v, m)
				}
				if c1.Bit(m) != x.Bit(m1) {
					t.Fatalf("n=%d v=%d cofactor1 bit %d", n, v, m)
				}
			}
		}
	}
}

func TestSupport(t *testing.T) {
	n := 5
	// f = x0 & x3
	f := New(n).And(Var(n, 0), Var(n, 3))
	sup := f.Support()
	if len(sup) != 2 || sup[0] != 0 || sup[1] != 3 {
		t.Errorf("Support = %v", sup)
	}
	if Const(n, true).Support() != nil {
		t.Errorf("constant has support")
	}
}

func TestCountOnesAndConsts(t *testing.T) {
	n := 3
	f := Var(n, 0) // 4 of 8 minterms
	if f.CountOnes() != 4 {
		t.Errorf("CountOnes = %d", f.CountOnes())
	}
	if !Const(n, false).IsConst0() || Const(n, false).IsConst1() {
		t.Errorf("const0 misclassified")
	}
	if !Const(n, true).IsConst1() || Const(n, true).IsConst0() {
		t.Errorf("const1 misclassified")
	}
}

func TestISOPSimple(t *testing.T) {
	n := 3
	// f = x0&x1 | !x2
	f := New(n).And(Var(n, 0), Var(n, 1))
	f.Or(f, New(n).Not(Var(n, 2)))
	sop := ISOP(f, TT{})
	if !sop.TT().Equal(f) {
		t.Fatalf("ISOP cover wrong: %v", sop.Cubes)
	}
	if len(sop.Cubes) != 2 {
		t.Errorf("cube count = %d, want 2", len(sop.Cubes))
	}
}

func TestISOPConstants(t *testing.T) {
	for _, n := range []int{0, 2, 7} {
		s0 := ISOP(Const(n, false), TT{})
		if !s0.IsConst0() {
			t.Errorf("n=%d: const0 SOP = %v", n, s0.Cubes)
		}
		s1 := ISOP(Const(n, true), TT{})
		if !s1.IsConst1() {
			t.Errorf("n=%d: const1 SOP = %v", n, s1.Cubes)
		}
	}
}

func TestQuickISOPCoversExactly(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		x := randomTT(rng, n)
		sop := ISOP(x, TT{})
		return sop.TT().Equal(x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickISOPWithDontCares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		on := randomTT(rng, n)
		dcRaw := randomTT(rng, n)
		dc := New(n).AndNot(dcRaw, on) // don't-cares disjoint from onset
		sop := ISOP(on, dc)
		cover := sop.TT()
		// onset <= cover <= onset|dc
		lowOK := New(n).AndNot(on, cover).IsConst0()
		upper := New(n).Or(on, dc)
		highOK := New(n).AndNot(cover, upper).IsConst0()
		return lowOK && highOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestQuickISOPIrredundant(t *testing.T) {
	// Dropping any single cube must lose coverage.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		x := randomTT(rng, n)
		sop := ISOP(x, TT{})
		for drop := range sop.Cubes {
			reduced := SOP{NVars: n}
			for i, c := range sop.Cubes {
				if i != drop {
					reduced.Cubes = append(reduced.Cubes, c)
				}
			}
			if reduced.TT().Equal(x) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMinPhaseISOP(t *testing.T) {
	n := 4
	// OR of all variables: positive ISOP has 4 cubes, complement has 1.
	f := New(n)
	for v := 0; v < n; v++ {
		f.Or(f, Var(n, v))
	}
	sop, compl := MinPhaseISOP(f)
	if !compl {
		t.Errorf("complemented phase must win for wide OR")
	}
	if len(sop.Cubes) != 1 {
		t.Errorf("cube count = %d, want 1", len(sop.Cubes))
	}
}

func TestCubeHelpers(t *testing.T) {
	c := Cube{}.WithLit(2, true).WithLit(0, false)
	if c.NumLits() != 2 || !c.HasLit(2, true) || !c.HasLit(0, false) || c.HasLit(1, true) {
		t.Errorf("cube helpers wrong: %v", c)
	}
	if (Cube{}).String() != "<1>" {
		t.Errorf("empty cube string = %q", Cube{}.String())
	}
}

func TestNpn4CanonInvariance(t *testing.T) {
	// All NPN-equivalent functions must share one canonical form.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		tt := uint16(rng.Intn(1 << 16))
		canon, _ := Npn4Canon(tt)
		// Random NPN transform of tt.
		cur := tt
		for v := 0; v < 4; v++ {
			if rng.Intn(2) == 0 {
				cur = npn4FlipVar(cur, v)
			}
		}
		cur = npn4Permute(cur, perms4[rng.Intn(24)])
		if rng.Intn(2) == 0 {
			cur = ^cur
		}
		canon2, _ := Npn4Canon(cur)
		if canon != canon2 {
			t.Fatalf("trial %d: canon %04x != %04x", trial, canon, canon2)
		}
	}
}

// npn4Apply applies a transform to tt, mapping the original function to the
// canonical domain: the check that the transform Npn4Canon returns (which
// rewriting uses to map leaves) really produces the canonical table.
func npn4Apply(tt uint16, tr Npn4Transform) uint16 {
	cur := tt
	for v := 0; v < 4; v++ {
		if tr.InputNeg>>uint(v)&1 != 0 {
			cur = npn4FlipVar(cur, v)
		}
	}
	cur = npn4Permute(cur, tr.Perm)
	if tr.OutputNeg {
		cur = ^cur
	}
	return cur
}

func TestNpn4ApplyMatchesCanon(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		tt := uint16(rng.Intn(1 << 16))
		canon, tr := Npn4Canon(tt)
		if got := npn4Apply(tt, tr); got != canon {
			t.Fatalf("npn4Apply = %04x, want %04x", got, canon)
		}
	}
}

// npn4CanonLoop is the direct enumeration Npn4Canon replaces: every one of
// the 768 transforms applied bit by bit, in the same order. It is the oracle
// of TestNpn4CanonMatchesLoop.
func npn4CanonLoop(tt uint16) (uint16, Npn4Transform) {
	best := uint16(0xFFFF)
	var bestTr Npn4Transform
	first := true
	for _, perm := range perms4 {
		for neg := 0; neg < 16; neg++ {
			cur := tt
			for v := 0; v < 4; v++ {
				if neg>>uint(v)&1 != 0 {
					cur = npn4FlipVar(cur, v)
				}
			}
			cur = npn4Permute(cur, perm)
			for _, oneg := range [2]bool{false, true} {
				cand := cur
				if oneg {
					cand = ^cur
				}
				if first || cand < best {
					best = cand
					bestTr = Npn4Transform{Perm: perm, InputNeg: uint8(neg), OutputNeg: oneg}
					first = false
				}
			}
		}
	}
	return best, bestTr
}

// TestNpn4CanonMatchesLoop checks the table-driven canonization against the
// direct enumeration on all 65,536 functions: the same canonical table and,
// because ties must break the same way, the same transform.
func TestNpn4CanonMatchesLoop(t *testing.T) {
	step := 1
	if alloctest.RaceEnabled || testing.Short() {
		step = 61 // the oracle is slow; a coprime stride still visits every class
	}
	for f := 0; f < 1<<16; f += step {
		canon, tr := Npn4Canon(uint16(f))
		wantCanon, wantTr := npn4CanonLoop(uint16(f))
		if canon != wantCanon || tr != wantTr {
			t.Fatalf("Npn4Canon(%04x) = %04x %+v, loop gives %04x %+v", f, canon, tr, wantCanon, wantTr)
		}
	}
}

func TestNpn4ClassCount(t *testing.T) {
	if testing.Short() {
		t.Skip("enumerates all 65536 functions")
	}
	classes := map[uint16]bool{}
	for f := 0; f < 1<<16; f++ {
		c, _ := Npn4Canon(uint16(f))
		classes[c] = true
	}
	// The number of NPN classes of 4-variable functions is 222.
	if len(classes) != 222 {
		t.Errorf("NPN class count = %d, want 222", len(classes))
	}
}

// seededCones returns count pseudo-random n-variable functions shaped like
// refactoring cones: the AND/OR of a few random tables restricted to a
// random subset of the variables, so the support and density vary.
func seededCones(n, count int) []TT {
	rng := rand.New(rand.NewSource(int64(n)))
	fs := make([]TT, count)
	for i := range fs {
		a, b, c := randomTT(rng, n), randomTT(rng, n), randomTT(rng, n)
		f := New(n).Or(New(n).And(a, b), New(n).AndNot(c, a))
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				f.Cofactor0(f, v)
			}
		}
		fs[i] = f
	}
	return fs
}

var sinkCubes int

func BenchmarkISOP(b *testing.B) {
	for _, n := range []int{6, 8, 10, 12} {
		fs := seededCones(n, 64)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkCubes += len(ISOP(fs[i%len(fs)], TT{}).Cubes)
			}
		})
	}
}

func BenchmarkMinPhaseISOP(b *testing.B) {
	fs := seededCones(12, 64)
	b.Run("n=12", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s, _ := MinPhaseISOP(fs[i%len(fs)])
			sinkCubes += len(s.Cubes)
		}
	})
}

// TestISOPSingleWordAllocs pins the single-word path: nothing is allocated
// beyond the returned cube slice.
func TestISOPSingleWordAllocs(t *testing.T) {
	f := New(6)
	f.Words[0] = 0x8000_0000_0000_0001 | 0x0000_00ff_ff00_0000 // 4 cubes: fits the initial slice
	if got := testing.AllocsPerRun(100, func() { ISOP(f, TT{}) }); got > 1 {
		t.Errorf("single-word ISOP: %v allocs/op, want at most the result slice", got)
	}
}
