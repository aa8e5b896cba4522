package dedup

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/gpu"
)

func simEqual(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false
	}
	ins := make([][]uint64, a.NumPIs())
	for i := range ins {
		r := rand.New(rand.NewSource(int64(i)*911 + 3))
		ins[i] = []uint64{r.Uint64(), r.Uint64()}
	}
	sa, sb := a.Simulate(ins), b.Simulate(ins)
	for i := range sa {
		for j := range sa[i] {
			if sa[i][j] != sb[i][j] {
				return false
			}
		}
	}
	return true
}

func TestDedupMergesCascade(t *testing.T) {
	// Figure 4: duplicates at one level create new duplicates among their
	// fanouts, which the level-wise pass must catch.
	a := aig.New(3)
	x, y, z := a.PI(0), a.PI(1), a.PI(2)
	d1 := a.AddAndUnchecked(x, y)
	d2 := a.AddAndUnchecked(x, y) // duplicate of d1
	u1 := a.AddAndUnchecked(d1, z)
	u2 := a.AddAndUnchecked(d2, z) // becomes duplicate after d1/d2 merge
	top := a.AddAndUnchecked(u1, u2)
	a.AddPO(top)
	out, st := Run(gpu.New(1), a)
	if st.DuplicatesMerged != 2 {
		t.Errorf("DuplicatesMerged = %d, want 2", st.DuplicatesMerged)
	}
	// top = u & u = u after simplification; remaining: d, u.
	if out.NumAnds() != 2 {
		t.Errorf("NumAnds = %d, want 2", out.NumAnds())
	}
	if !simEqual(a, out) {
		t.Errorf("function changed")
	}
}

// TestMergeKeepsEarliestLevel pins the level half of the survivor rule: a
// class keeps its member of the earliest level even when a member of a later
// level has the lower id.
func TestMergeKeepsEarliestLevel(t *testing.T) {
	a := aig.New(2)
	x, y := a.PI(0), a.PI(1)
	p := a.AddAndUnchecked(x, x) // level 1, reduces to x
	m := a.AddAndUnchecked(p, y) // level 2, becomes x & y
	r := a.AddAndUnchecked(x, y) // level 1, a higher id than m
	a.AddPO(m)
	a.AddPO(r)
	for _, w := range []int{1, 2} {
		_, remap, st := Merge(gpu.New(w), a.Clone())
		if st.DuplicatesMerged != 1 || remap[m.Var()] != r || remap[r.Var()] != r {
			t.Errorf("W=%d: merged %d, remap m=%v r=%v, want both %v", w, st.DuplicatesMerged, remap[m.Var()], remap[r.Var()], r)
		}
	}
}

func TestDedupRemovesDangling(t *testing.T) {
	a := aig.New(2)
	a.EnableStrash()
	keep := a.NewAnd(a.PI(0), a.PI(1))
	a.NewAnd(a.PI(0), a.PI(1).Not()) // dangling
	a.AddPO(keep)
	out, st := Run(gpu.New(1), a)
	if out.NumAnds() != 1 {
		t.Errorf("NumAnds = %d, want 1", out.NumAnds())
	}
	if st.DanglingRemoved != 1 {
		t.Errorf("DanglingRemoved = %d, want 1", st.DanglingRemoved)
	}
}

func TestDedupConstantPropagation(t *testing.T) {
	a := aig.New(2)
	x := a.PI(0)
	n1 := a.AddAndUnchecked(x, x.Not()) // const0
	n2 := a.AddAndUnchecked(n1, a.PI(1))
	a.AddPO(n2)
	a.AddPO(n1.Not())
	out, st := Run(gpu.New(1), a)
	if out.NumAnds() != 0 {
		t.Errorf("NumAnds = %d, want 0", out.NumAnds())
	}
	if out.PO(0) != aig.ConstFalse || out.PO(1) != aig.ConstTrue {
		t.Errorf("POs = %v, %v", out.PO(0), out.PO(1))
	}
	if st.TriviallyReduced != 2 {
		t.Errorf("TriviallyReduced = %d, want 2", st.TriviallyReduced)
	}
}

func TestDedupIdempotentOnCleanAIG(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := aig.Random(rng, 8, 300, 5).Rehash()
	out, st := Run(gpu.New(2), a)
	if out.NumAnds() != a.NumAnds() {
		t.Errorf("clean AIG changed: %d -> %d (stats %+v)", a.NumAnds(), out.NumAnds(), st)
	}
}

func TestQuickDedupMatchesRehash(t *testing.T) {
	// The parallel pass must reach the same node count as the sequential
	// reference (full rehash) and preserve the function.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.New(6)
		// Build an AIG with unchecked duplicates.
		lits := make([]aig.Lit, 0, 64)
		for i := 0; i < 6; i++ {
			lits = append(lits, a.PI(i))
		}
		for i := 0; i < 80; i++ {
			f0 := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
			f1 := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
			if f0.Var() == f1.Var() {
				continue
			}
			lits = append(lits, a.AddAndUnchecked(f0, f1))
		}
		for i := 0; i < 4; i++ {
			a.AddPO(lits[len(lits)-1-rng.Intn(8)])
		}
		par, _ := Run(gpu.New(1+rng.Intn(4)), a)
		ref := a.Rehash()
		if par.NumAnds() != ref.NumAnds() {
			t.Logf("count mismatch: dedup %d vs rehash %d", par.NumAnds(), ref.NumAnds())
			return false
		}
		return simEqual(a, par)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// twoCopies replays a's AND nodes twice without structural hashing, so every
// node has a structural duplicate on its own level, and alternates the POs
// between the two copies.
func twoCopies(a *aig.AIG) *aig.AIG {
	if !a.Canonical() {
		a, _ = a.Compact()
	}
	out := aig.NewCap(a.NumPIs(), 2*a.NumObjs())
	out.Name = a.Name
	var copies [2][]aig.Lit
	for c := range copies {
		m := make([]aig.Lit, a.NumObjs())
		for v := 0; v <= a.NumPIs(); v++ {
			m[v] = aig.MakeLit(int32(v), false)
		}
		at := func(l aig.Lit) aig.Lit { return m[l.Var()].NotCond(l.IsCompl()) }
		a.ForEachAnd(func(id int32) { m[id] = out.AddAndUnchecked(at(a.Fanin0(id)), at(a.Fanin1(id))) })
		copies[c] = m
	}
	for i, p := range a.POs() {
		out.AddPO(copies[i%2][p.Var()].NotCond(p.IsCompl()))
	}
	return out
}

// levelSpanning builds n instances of a class that spans two levels, with
// same-level duplicates beside it: q = ((x&x)&y)&z sits one level above the
// two copies of p = (x&y)&z, yet all three reduce to the same node. The q
// chains are created first, so q has the lowest id of its class, and the
// copies of p lie n nodes apart, in different chunks of a launch.
func levelSpanning(n int) *aig.AIG {
	const npi = 128
	a := aig.New(npi)
	a.Name = "level_spanning"
	pis := func(i int) (x, y, z aig.Lit) {
		j := i % npi
		return a.PI(j), a.PI((j + 1 + i/npi%(npi-1)) % npi).NotCond(i%3 == 0), a.PI((i*13 + 5) % npi)
	}
	roots := make([][3]aig.Lit, n)
	for i := range roots {
		x, y, z := pis(i)
		roots[i][0] = a.AddAndUnchecked(a.AddAndUnchecked(a.AddAndUnchecked(x, x), y), z)
	}
	for c := 1; c <= 2; c++ {
		for i := range roots {
			x, y, z := pis(i)
			roots[i][c] = a.AddAndUnchecked(a.AddAndUnchecked(x, y), z)
		}
	}
	for i, r := range roots {
		a.AddPO(r[i%3])
		a.AddPO(r[(i+1)%3].Not())
	}
	return a
}

// digest hashes the structure of a network: PI count, fanins and POs.
func digest(a *aig.AIG) [sha256.Size]byte {
	h := sha256.New()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	put(uint32(a.NumPIs()))
	for id := int32(a.NumPIs() + 1); int(id) < a.NumObjs(); id++ {
		put(uint32(a.Fanin0(id)))
		put(uint32(a.Fanin1(id)))
	}
	for _, p := range a.POs() {
		put(uint32(p))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// TestDedupWorkerIndependence pins the survivor rule: every class of
// structural duplicates keeps the member of lowest (level, id) rank, so the
// cleanup pass gives the same bytes at any worker count. Most inputs have
// levels wider than one 256-thread chunk, where a two-worker launch splits a
// class's members between its bodies.
func TestDedupWorkerIndependence(t *testing.T) {
	inputs := []*aig.AIG{levelSpanning(3000)}
	for _, c := range bench.Suite(2) {
		inputs = append(inputs, twoCopies(c.Build()))
	}
	for _, in := range inputs {
		want, wantSt := Run(gpu.New(1), in)
		if wantSt.DuplicatesMerged == 0 {
			t.Fatalf("%s: no duplicates merged", in.Name)
		}
		if !simEqual(in, want) {
			t.Fatalf("%s: function changed", in.Name)
		}
		for run := 0; run < 8; run++ {
			got, st := Run(gpu.New(2), in)
			if digest(got) != digest(want) || st != wantSt {
				t.Errorf("%s: W=2 run %d differs from W=1 (%d vs %d ANDs, stats %+v vs %+v)",
					in.Name, run, got.NumAnds(), want.NumAnds(), st, wantSt)
				break
			}
		}
	}
}
