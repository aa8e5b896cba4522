package truth

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// The oracle is the previous ISOP implementation, kept verbatim as the
// reference the production code must match cube for cube: it runs every
// level of the Minato-Morreale recursion on full 2^n-bit tables.

// isopArena recycles truth-table word buffers across the oracle recursion.
type isopArena struct {
	n     int
	words int
	free  []TT
	vars  []TT // cached Var tables
	calls int  // recursion count, for work estimation
}

func newIsopArena(n int) *isopArena {
	a := &isopArena{n: n, words: WordCount(n)}
	a.vars = make([]TT, n)
	for v := 0; v < n; v++ {
		a.vars[v] = Var(n, v)
	}
	return a
}

func (a *isopArena) get() TT {
	if k := len(a.free); k > 0 {
		t := a.free[k-1]
		a.free = a.free[:k-1]
		return t
	}
	return New(a.n)
}

func (a *isopArena) put(ts ...TT) {
	a.free = append(a.free, ts...)
}

// oracleISOPCount is the full-width ISOPCount.
func oracleISOPCount(onset TT, dc TT) (SOP, int64) {
	n := onset.NVars
	ar := newIsopArena(n)
	lower := ar.get().Copy(onset)
	upper := ar.get().Copy(onset)
	if dc.Words != nil {
		upper.Or(upper, dc)
	}
	cubes, cover := oracleIsopRec(ar, lower, upper, n)
	ar.put(lower, upper, cover)
	return SOP{NVars: n, Cubes: cubes}, int64(ar.calls) * int64(12*ar.words)
}

// oracleIsopRec returns cubes covering [L, U] plus the truth table of the
// cover. L and U are owned by the caller; the returned cover is
// arena-allocated and owned by the caller.
func oracleIsopRec(ar *isopArena, L, U TT, topVar int) ([]Cube, TT) {
	ar.calls++
	if L.IsConst0() {
		cov := ar.get()
		for i := range cov.Words {
			cov.Words[i] = 0
		}
		return nil, cov
	}
	if U.IsConst1() {
		cov := ar.get()
		for i := range cov.Words {
			cov.Words[i] = ^uint64(0)
		}
		return []Cube{{}}, cov
	}
	// Find the top variable either bound depends on.
	v := topVar - 1
	for v >= 0 && !dependsOn(L, v) && !dependsOn(U, v) {
		v--
	}
	if v < 0 {
		panic("truth: ISOP invariant violated (is onset <= upperset?)")
	}
	L0 := ar.get().Cofactor0(L, v)
	L1 := ar.get().Cofactor1(L, v)
	U0 := ar.get().Cofactor0(U, v)
	U1 := ar.get().Cofactor1(U, v)

	t0 := ar.get().AndNot(L0, U1)
	c0, cov0 := oracleIsopRec(ar, t0, U0, v)
	t1 := ar.get().AndNot(L1, U0)
	c1, cov1 := oracleIsopRec(ar, t1, U1, v)
	Lstar := t0.AndNot(L0, cov0) // reuse t0
	tmp := t1.AndNot(L1, cov1)   // reuse t1
	Lstar.Or(Lstar, tmp)
	Ustar := tmp.And(U0, U1)
	cs, covs := oracleIsopRec(ar, Lstar, Ustar, v)

	cubes := make([]Cube, 0, len(c0)+len(c1)+len(cs))
	for _, c := range c0 {
		cubes = append(cubes, c.WithLit(v, false))
	}
	for _, c := range c1 {
		cubes = append(cubes, c.WithLit(v, true))
	}
	cubes = append(cubes, cs...)

	// cover = cov0&!v | cov1&v | covs
	vt := ar.vars[v]
	cover := cov0.AndNot(cov0, vt) // reuse cov0 as the result
	tmp2 := cov1.And(cov1, vt)
	cover.Or(cover, tmp2)
	cover.Or(cover, covs)
	ar.put(L0, L1, U0, U1, t0, t1, cov1, covs)
	return cubes, cover
}

// checkISOPAgainstOracle asserts that ISOPCount(onset, dc) and the oracle
// agree cube for cube and on the op estimate, and (up to 12 variables) that
// the cover lies in [onset, onset|dc]. A nil dc.Words means completely
// specified.
func checkISOPAgainstOracle(t *testing.T, what string, onset, dc TT) {
	t.Helper()
	// The oracle copies its inputs, but guard against the production code
	// writing through its read-only views.
	on0, dc0 := onset.Clone(), dc
	if dc.Words != nil {
		dc0 = dc.Clone()
	}
	got, gotOps := ISOPCount(onset, dc)
	want, wantOps := oracleISOPCount(onset, dc)
	if !equalWords(onset.Words, on0.Words) || (dc.Words != nil && !equalWords(dc.Words, dc0.Words)) {
		t.Fatalf("%s: ISOPCount modified its inputs", what)
	}
	if gotOps != wantOps {
		t.Fatalf("%s: op estimate %d, oracle %d", what, gotOps, wantOps)
	}
	if got.NVars != want.NVars || len(got.Cubes) != len(want.Cubes) {
		t.Fatalf("%s: %d cubes over %d vars, oracle %d over %d",
			what, len(got.Cubes), got.NVars, len(want.Cubes), want.NVars)
	}
	for i := range want.Cubes {
		if got.Cubes[i] != want.Cubes[i] {
			t.Fatalf("%s: cube %d = %v, oracle %v", what, i, got.Cubes[i], want.Cubes[i])
		}
	}
	n := onset.NVars
	if n > 12 {
		return // evaluating thousands of cubes at 2^n bits costs more than the oracle
	}
	cov := got.TT()
	upper := onset.Clone()
	if dc.Words != nil {
		upper.Or(upper, dc)
	}
	if !New(n).AndNot(onset, cov).IsConst0() {
		t.Fatalf("%s: cover misses part of the onset", what)
	}
	if !New(n).AndNot(cov, upper).IsConst0() {
		t.Fatalf("%s: cover leaves onset|dc", what)
	}
}

func equalWords(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// structuredTT builds a function of at most k of the n variables: a random
// table over k variables substituted onto k distinct variables of n.
func structuredTT(rng *rand.Rand, n, k int) TT {
	if k > n {
		k = n
	}
	vars := rng.Perm(n)[:k]
	small := randomTT(rng, k)
	t := New(n)
	for m := 0; m < 1<<n; m++ {
		idx := 0
		for i, v := range vars {
			idx |= (m >> uint(v) & 1) << uint(i)
		}
		if small.Bit(idx) {
			t.SetBit(m)
		}
	}
	if n < 6 {
		// SetBit leaves the bits above 2^n clear; give them garbage too.
		t.Words[0] |= rng.Uint64() &^ usedMask(n)
	}
	return t
}

func TestISOPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= MaxVars; n++ {
		// The oracle takes ~1 s per random function at 2^16 bits.
		rounds := 40
		switch {
		case n > 12:
			rounds = 1
		case n > 10:
			rounds = 4
		case n > 8:
			rounds = 12
		}
		for r := 0; r < rounds; r++ {
			// randomTT fills whole words, so for n < 6 every input carries
			// garbage above bit 2^n.
			a, b, c := randomTT(rng, n), randomTT(rng, n), randomTT(rng, n)
			sparse := New(n).And(New(n).And(a, b), c)
			dense := New(n).Or(New(n).Or(a, b), c)
			few := structuredTT(rng, n, 1+rng.Intn(4))
			fns := []struct {
				name string
				tt   TT
			}{{"random", a}, {"sparse", sparse}, {"dense", dense}, {"few-var", few}}
			for i, f := range fns {
				what := fmt.Sprintf("n=%d round %d %s", n, r, f.name)
				// Each function completely specified, with a random and
				// with a sparse don't-care set (dc may overlap the onset);
				// above 14 variables one of the three per function.
				dcs := []struct {
					name string
					tt   TT
				}{{"", TT{}}, {" dc=random", b}, {" dc=sparse", New(n).And(b, c)}}
				if n > 14 {
					dcs = dcs[i%3 : i%3+1]
				}
				for _, d := range dcs {
					checkISOPAgainstOracle(t, what+d.name, f.tt, d.tt)
				}
			}
		}
		checkISOPAgainstOracle(t, fmt.Sprintf("n=%d const0", n), New(n), TT{})
		checkISOPAgainstOracle(t, fmt.Sprintf("n=%d const1", n), Const(n, true), TT{})
		checkISOPAgainstOracle(t, fmt.Sprintf("n=%d const0 dc=1", n), New(n), Const(n, true))
		for v := 0; v < n; v++ {
			checkISOPAgainstOracle(t, fmt.Sprintf("n=%d var %d", n, v), Var(n, v), TT{})
		}
	}
}

// TestMinPhaseISOPMatchesOracle pins the complement side: MinPhaseISOPCount
// must pick the same phase, cubes and estimate as two oracle runs.
func TestMinPhaseISOPMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for n := 0; n <= 13; n++ {
		for r := 0; r < 20; r++ {
			f := randomTT(rng, n)
			if r%2 == 1 {
				f = structuredTT(rng, n, 1+rng.Intn(5))
			}
			got, gotCompl, gotOps := MinPhaseISOPCount(f)
			pos, opsP := oracleISOPCount(f, TT{})
			neg, opsN := oracleISOPCount(New(n).Not(f), TT{})
			want, wantCompl := pos, false
			if len(neg.Cubes) < len(pos.Cubes) ||
				(len(neg.Cubes) == len(pos.Cubes) && neg.NumLits() < pos.NumLits()) {
				want, wantCompl = neg, true
			}
			if gotCompl != wantCompl || gotOps != opsP+opsN || len(got.Cubes) != len(want.Cubes) {
				t.Fatalf("n=%d round %d: compl=%v ops=%d cubes=%d, oracle compl=%v ops=%d cubes=%d",
					n, r, gotCompl, gotOps, len(got.Cubes), wantCompl, opsP+opsN, len(want.Cubes))
			}
			for i := range want.Cubes {
				if got.Cubes[i] != want.Cubes[i] {
					t.Fatalf("n=%d round %d: cube %d = %v, oracle %v", n, r, i, got.Cubes[i], want.Cubes[i])
				}
			}
		}
	}
}

// fuzzTT expands fuzz bytes into an n-variable table, repeating them.
func fuzzTT(n int, data []byte) TT {
	t := New(n)
	if len(data) == 0 {
		return t
	}
	var buf [8]byte
	for i := range t.Words {
		for j := range buf {
			buf[j] = data[(8*i+j)%len(data)]
		}
		t.Words[i] = binary.LittleEndian.Uint64(buf[:])
	}
	return t
}

// FuzzISOP: bytes -> n, onset, dc; the same assertions as
// TestISOPMatchesOracle. n is capped at 10 so one execution stays cheap.
func FuzzISOP(f *testing.F) {
	f.Add(uint8(0), []byte{1}, []byte{})
	f.Add(uint8(3), []byte{0xE8, 0xff, 0x13}, []byte{})
	f.Add(uint8(5), []byte{0x96, 0x69, 0x69, 0x96, 1, 2, 3, 4}, []byte{0x0f})
	f.Add(uint8(6), []byte{0xAA, 0xCC, 0xF0, 0x00, 0xFF}, []byte{})
	f.Add(uint8(8), []byte{0x17, 0x7e, 0x81, 0xe8, 0x42}, []byte{0x80, 0x01})
	f.Add(uint8(10), []byte{0x01, 0x00, 0x00, 0x80}, []byte{0x10, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, nv uint8, on, dc []byte) {
		n := int(nv % 11)
		onset := fuzzTT(n, on)
		dcTT := TT{}
		if len(dc) > 0 {
			dcTT = fuzzTT(n, dc)
		}
		checkISOPAgainstOracle(t, fmt.Sprintf("n=%d", n), onset, dcTT)
	})
}
