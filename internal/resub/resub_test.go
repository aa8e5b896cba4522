package resub

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/cec"
	"aigre/internal/core"
	"aigre/internal/gpu"
)

func simEqual(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false
	}
	ins := make([][]uint64, a.NumPIs())
	for i := range ins {
		r := rand.New(rand.NewSource(int64(i)*8737 + 11))
		ins[i] = []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
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

// dividendAIG builds a network with known resubstitution opportunities:
// two structurally different implementations of the same function, and a
// node expressible as the OR of two existing signals.
func dividendAIG() *aig.AIG {
	a := aig.New(4)
	a.EnableStrash()
	x, y, z, w := a.PI(0), a.PI(1), a.PI(2), a.PI(3)
	// f1 = (x&y)|(x&z) built flat; g = x&(y|z) built factored: same function.
	f1 := a.Or(a.NewAnd(x, y), a.NewAnd(x, z))
	g := a.NewAnd(x, a.Or(y, z))
	a.AddPO(a.NewAnd(f1, w)) // f1 has its own fanout cone
	a.AddPO(g.Not())
	// h = (x&y) | (y&z) rebuilt from scratch next to its ingredients.
	t1 := a.NewAnd(x, y)
	t2 := a.NewAnd(y, z)
	h := a.Or(a.Or(t1, t2), a.NewAnd(t1, z)) // redundant third term
	a.AddPO(h)
	return a
}

func TestSequentialFindsResubs(t *testing.T) {
	a := dividendAIG()
	out, st := Sequential(a)
	if st.ZeroResubs+st.OneResubs == 0 {
		t.Errorf("no substitutions found: %+v", st)
	}
	if out.NumAnds() >= a.NumAnds() {
		t.Errorf("no reduction: %d -> %d", a.NumAnds(), out.NumAnds())
	}
	if !simEqual(a, out) {
		t.Errorf("function changed")
	}
}

func TestParallelFindsResubs(t *testing.T) {
	a := dividendAIG()
	out, st := Parallel(gpu.New(1), a)
	if st.ZeroResubs+st.OneResubs == 0 {
		t.Errorf("no substitutions found: %+v", st)
	}
	if !simEqual(a, out) {
		t.Errorf("function changed")
	}
}

func TestQuickSequentialPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6+rng.Intn(4), 120+rng.Intn(200), 4).Rehash()
		defer func(k int) { maxCut = k }(maxCut)
		maxCut = 4 + rng.Intn(5)
		out, _ := Sequential(a)
		if err := out.Check(); err != nil {
			t.Log(err)
			return false
		}
		return simEqual(a, out) && out.NumAnds() <= a.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickParallelPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6+rng.Intn(4), 120+rng.Intn(200), 4).Rehash()
		out, _ := Parallel(gpu.New(1+rng.Intn(4)), a)
		if err := out.Check(); err != nil {
			t.Log(err)
			return false
		}
		return simEqual(a, out) && out.NumAnds() <= a.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestResubPassesCEC(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := aig.Random(rng, 12, 400, 6).Rehash()
	seqOut, _ := Sequential(a)
	parOut, _ := Parallel(gpu.New(2), a)
	for name, out := range map[string]*aig.AIG{"seq": seqOut, "par": parOut} {
		res, err := cec.Check(a, out, cec.Options{})
		if err != nil || !res.Equivalent {
			t.Fatalf("%s: %+v %v", name, res, err)
		}
	}
}

// TestResubGoldens pins both engines' substitution counts on two suite
// circuits to the values the map-based cone kit produced (recorded before
// the engines moved onto core.EvalScratch and cut.Scratch).
func TestResubGoldens(t *testing.T) {
	for _, c := range []struct {
		name     string
		seq, par Stats
	}{
		{"mem_ctrl",
			Stats{NodesConsidered: 2071, ZeroResubs: 7, OneResubs: 26, NodesBefore: 2071, NodesAfter: 2020},
			Stats{NodesConsidered: 2071, ZeroResubs: 7, OneResubs: 26, NodesBefore: 2071, NodesAfter: 2020}},
		{"voter",
			Stats{NodesConsidered: 5043, ZeroResubs: 300, OneResubs: 582, NodesBefore: 5143, NodesAfter: 3870},
			Stats{NodesConsidered: 5143, ZeroResubs: 350, OneResubs: 250, NodesBefore: 5143, NodesAfter: 4318}},
	} {
		a, ok := bench.ByName(c.name, 1)
		if !ok {
			t.Fatalf("unknown circuit %q", c.name)
		}
		if _, st := Sequential(a); st != c.seq {
			t.Errorf("%s sequential: %+v, want %+v", c.name, st, c.seq)
		}
		if _, st := Parallel(gpu.New(1), a); st != c.par {
			t.Errorf("%s parallel at 1 worker: %+v, want %+v", c.name, st, c.par)
		}
	}
}

func TestDivisorClosureExcludesTFO(t *testing.T) {
	// The closure construction must never offer a divisor whose fanin cone
	// contains the target (cycle safety).
	rng := rand.New(rand.NewSource(4))
	a := aig.Random(rng, 6, 150, 4).Rehash()
	a.EnableStrash()
	a.EnableFanouts()
	fanouts := a.Fanouts
	var es core.EvalScratch
	counts := 0
	a.ForEachAnd(func(id int32) {
		if counts > 40 {
			return
		}
		counts++
		leaves := []int32{a.Fanin0(id).Var(), a.Fanin1(id).Var()}
		es.MffcMembers(a, id, leaves) // the target's fanins are the leaves: the MFFC is the target
		ds := collectDivisors(a, id, leaves, fanouts, &es, 32)
		for _, d := range ds.ids {
			if d == id {
				continue
			}
			if coneContainsAny(a, d, id) {
				t.Fatalf("divisor %d of node %d contains the target in its TFI", d, id)
			}
		}
	})
}

// coneContainsAny checks whether target is anywhere in the full TFI of root.
func coneContainsAny(a *aig.AIG, root, target int32) bool {
	seen := map[int32]bool{}
	stack := []int32{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == target {
			return true
		}
		if seen[cur] || !a.IsAnd(cur) {
			continue
		}
		seen[cur] = true
		stack = append(stack, a.Fanin0(cur).Var(), a.Fanin1(cur).Var())
	}
	return false
}
