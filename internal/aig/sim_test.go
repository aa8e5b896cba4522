package aig

import (
	"fmt"
	"math/rand"
	"testing"

	"aigre/internal/alloctest"
)

// simulateRef is Simulate as it was before the word-at-a-time sweep: one
// value slice per node over an n x w buffer, in TopoOrder. It is the oracle of the
// differential tests below.
func simulateRef(a *AIG, piValues [][]uint64) [][]uint64 {
	w := 0
	if a.numPIs > 0 {
		w = len(piValues[0])
	}
	n := len(a.fanin0)
	vals := make([][]uint64, n)
	vals[0] = make([]uint64, w) // constant false
	for i := 0; i < int(a.numPIs); i++ {
		vals[i+1] = piValues[i]
	}
	order := a.TopoOrder(false)
	buf := make([]uint64, len(order)*w)
	for _, id := range order {
		v := buf[:w:w]
		buf = buf[w:]
		f0, f1 := a.fanin0[id], a.fanin1[id]
		v0, v1 := vals[f0.Var()], vals[f1.Var()]
		m0 := maskOf(f0)
		m1 := maskOf(f1)
		for j := 0; j < w; j++ {
			v[j] = (v0[j] ^ m0) & (v1[j] ^ m1)
		}
		vals[id] = v
	}
	out := make([][]uint64, len(a.pos))
	for i, p := range a.pos {
		o := make([]uint64, w)
		pv := vals[p.Var()]
		m := maskOf(p)
		for j := 0; j < w; j++ {
			o[j] = pv[j] ^ m
		}
		out[i] = o
	}
	return out
}

// randomEdits applies up to n in-place replacements to a (strash and fanouts
// enabled): a live AND node is replaced by a fresh AND of two signals outside
// its transitive fanout, which is cycle-free by construction. The new node
// has the highest id, so the fanouts of the replaced node end up referencing
// a later id, and the replaced cone is deleted: the network is left with
// non-topological ids and holes.
func randomEdits(a *AIG, rng *rand.Rand, n int) {
	for ; n > 0; n-- {
		var live []int32
		a.ForEachAnd(func(id int32) { live = append(live, id) })
		if len(live) == 0 {
			return
		}
		old := live[rng.Intn(len(live))]
		inTFO := make([]bool, a.NumObjs())
		inTFO[old] = true
		stack := []int32{old}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, f := range a.Fanouts(cur) {
				if !inTFO[f] {
					inTFO[f] = true
					stack = append(stack, f)
				}
			}
		}
		var free []int32
		for id := int32(0); int(id) < a.NumObjs(); id++ {
			if !inTFO[id] && !a.IsDeleted(id) {
				free = append(free, id)
			}
		}
		x := MakeLit(free[rng.Intn(len(free))], rng.Intn(2) == 0)
		y := MakeLit(free[rng.Intn(len(free))], rng.Intn(2) == 0)
		a.ReplaceNode(old, a.NewAnd(x, y))
	}
}

func randomPatterns(rng *rand.Rand, nPIs, w int) [][]uint64 {
	ins := make([][]uint64, nPIs)
	for i := range ins {
		ins[i] = make([]uint64, w)
		for j := range ins[i] {
			ins[i][j] = rng.Uint64()
		}
	}
	return ins
}

func equalSim(x, y [][]uint64) error {
	if len(x) != len(y) {
		return fmt.Errorf("%d outputs vs %d", len(x), len(y))
	}
	for i := range x {
		if len(x[i]) != len(y[i]) {
			return fmt.Errorf("output %d: %d words vs %d", i, len(x[i]), len(y[i]))
		}
		for j := range x[i] {
			if x[i][j] != y[i][j] {
				return fmt.Errorf("output %d word %d: %#x vs %#x", i, j, x[i][j], y[i][j])
			}
		}
	}
	return nil
}

// simNetworks are the shapes Simulate must handle: id-ordered, edited in
// place (non-topological ids, deleted nodes), without PIs, without ANDs.
func simNetworks(t testing.TB) map[string]*AIG {
	rng := rand.New(rand.NewSource(11))
	nets := map[string]*AIG{
		"id-ordered": Random(rng, 9, 400, 7),
		"no-ands":    New(3),
	}
	nets["no-ands"].AddPO(nets["no-ands"].PI(1).Not())
	nets["no-ands"].AddPO(ConstTrue)

	edited := Random(rng, 7, 300, 5)
	edited.EnableFanouts()
	randomEdits(edited, rng, 40)
	if err := edited.Check(); err != nil {
		t.Fatal(err)
	}
	if idOrdered(edited) || edited.numDead == 0 {
		t.Fatalf("edited network is topological by id (%v) with %d deleted nodes; want neither",
			idOrdered(edited), edited.numDead)
	}
	nets["edited"] = edited

	zero := New(0)
	zero.AddPO(ConstTrue)
	zero.AddPO(ConstFalse)
	nets["zero-pi"] = zero
	return nets
}

func TestSimulateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for name, a := range simNetworks(t) {
		for _, w := range []int{0, 1, 2, 3, 4, 17, 64} {
			ins := randomPatterns(rng, a.NumPIs(), w)
			if err := equalSim(a.Simulate(ins), simulateRef(a, ins)); err != nil {
				t.Errorf("%s, w=%d: %v", name, w, err)
			}
		}
	}
}

// FuzzSimulate: on a random network with random in-place edits, every
// pattern column of a wide Simulate must equal EvalOnce of that column, and
// the whole result must equal the reference.
func FuzzSimulate(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(30), uint8(0), uint8(1))
	f.Add(int64(2), uint8(6), uint8(120), uint8(25), uint8(3))
	f.Add(int64(3), uint8(4), uint8(0), uint8(0), uint8(2))
	f.Add(int64(4), uint8(8), uint8(255), uint8(90), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, nPIs, nAnds, nEdits, w uint8) {
		// Below four PIs Random may never reach nAnds distinct nodes.
		if nPIs < 4 || nPIs > 16 || w > 8 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, int(nPIs), int(nAnds), 1+int(nPIs)/2)
		a.EnableFanouts()
		randomEdits(a, rng, int(nEdits))
		if err := a.Check(); err != nil {
			t.Fatal(err)
		}
		ins := randomPatterns(rng, a.NumPIs(), int(w))
		got := a.Simulate(ins)
		if err := equalSim(got, simulateRef(a, ins)); err != nil {
			t.Fatal(err)
		}
		if w == 0 {
			return
		}
		col := rng.Intn(int(w) * 64)
		in := make([]bool, a.NumPIs())
		for i := range in {
			in[i] = ins[i][col/64]>>(col%64)&1 != 0
		}
		for o, v := range a.EvalOnce(in) {
			if v != (got[o][col/64]>>(col%64)&1 != 0) {
				t.Fatalf("output %d, column %d: Simulate and EvalOnce disagree", o, col)
			}
		}
	})
}

// TestSimulateAllocBudget: the scratch is one word per node plus the result
// rows, whatever the pattern count (the 8 KiB are size-class rounding).
func TestSimulateAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	a := Random(rand.New(rand.NewSource(3)), 32, 50000, 16)
	for _, w := range []int{4, 64} {
		ins := randomPatterns(rand.New(rand.NewSource(1)), a.NumPIs(), w)
		per := alloctest.Bytes(func() { a.Simulate(ins) })
		budget := uint64(8*a.NumObjs() + (8*w+24)*a.NumPOs() + 8192)
		if per > budget {
			t.Errorf("w=%d: Simulate allocated %d B, budget %d B (%d objects)", w, per, budget, a.NumObjs())
		}
	}
}

var sinkSim [][]uint64

// BenchmarkSimulate is the gate's kernel on a million-node random network
// (a strashed DAG with long back-edges, so fanin reads miss the cache).
func BenchmarkSimulate(b *testing.B) {
	a := Random(rand.New(rand.NewSource(1)), 256, 1<<20, 64)
	for _, w := range []int{4, 64} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			ins := randomPatterns(rand.New(rand.NewSource(2)), a.NumPIs(), w)
			b.ReportAllocs()
			b.ResetTimer()
			start := alloctest.Total()
			for i := 0; i < b.N; i++ {
				sinkSim = a.Simulate(ins)
			}
			alloctest.ReportPerNode(b, start, a.NumObjs())
		})
	}
}
