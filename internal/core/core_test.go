package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/cut"
	"aigre/internal/factor"
	"aigre/internal/gpu"
)

func TestLevelWiseCollapseVisitsEachRootOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := aig.Random(rng, 8, 300, 6)
	d := gpu.New(1)
	seen := map[int32]int{}
	// Trivial traversal: every node is its own cone with its fanins as cut.
	batches := LevelWiseCollapse(d, a, func(root int32) ([]int32, int64) {
		var cutNodes []int32
		for _, f := range [2]aig.Lit{a.Fanin0(root), a.Fanin1(root)} {
			cutNodes = append(cutNodes, f.Var())
		}
		return cutNodes, 1
	})
	total := 0
	for _, b := range batches {
		for _, r := range b {
			seen[r]++
			total++
		}
	}
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("root %d visited %d times", r, c)
		}
	}
	if total != a.CountReachable() {
		t.Errorf("visited %d roots, want %d reachable nodes", total, a.CountReachable())
	}
}

func TestFFCCollapseTheorem1(t *testing.T) {
	// Theorem 1: the identified cones are pairwise disjoint; together with
	// the FFC property and full coverage this is the paper's core claim.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6+rng.Intn(6), 100+rng.Intn(400), 3+rng.Intn(5))
		d := gpu.New(1 + rng.Intn(4))
		fc := NewFFCCollapser(a, 2+rng.Intn(11))
		batches := fc.Collapse(d)
		if err := verifyDisjoint(a, batches); err != nil {
			t.Log(err)
			return false
		}
		if err := verifyFFC(a, batches); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFCCollapseRespectsCutLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := aig.Random(rng, 10, 500, 5)
	for _, k := range []int{2, 4, 8, 12} {
		fc := NewFFCCollapser(a, k)
		for _, batch := range fc.Collapse(gpu.New(1)) {
			for _, cone := range batch {
				if len(cone.Leaves) > k {
					t.Fatalf("cone rooted at %d has %d leaves, limit %d", cone.Root, len(cone.Leaves), k)
				}
			}
		}
	}
}

func TestFFCCollapseMatchesMFFCWhenUnbounded(t *testing.T) {
	// With a generous cut limit, the first batch's cones (rooted at PO
	// drivers) must equal the MFFC partition picked greedily from the top:
	// specifically each cone must contain the full MFFC of its root
	// restricted to nodes not in earlier-traversed cones. For PO-driver
	// roots with no overlap, the cone equals the MFFC exactly.
	a := aig.New(4)
	a.EnableStrash()
	n1 := a.NewAnd(a.PI(0), a.PI(1))
	n2 := a.NewAnd(a.PI(1), a.PI(2))
	n3 := a.NewAnd(n1, n2)
	n4 := a.NewAnd(n3, a.PI(3))
	a.AddPO(n4)
	fc := NewFFCCollapser(a, 16)
	batches := fc.Collapse(gpu.New(1))
	if len(batches) != 1 || len(batches[0]) != 1 {
		t.Fatalf("batches = %v", batches)
	}
	cone := batches[0][0]
	if len(cone.Nodes) != 4 {
		t.Errorf("cone must absorb the whole MFFC: %v", cone.Nodes)
	}
	_ = n4
}

func TestFFCStopsAtExternalFanout(t *testing.T) {
	// Figure 2 situation: node 3 has an external fanout, so the cone of 7
	// must stop at it.
	a := aig.New(4)
	a.EnableStrash()
	n3 := a.NewAnd(a.PI(0), a.PI(1))
	n4 := a.NewAnd(a.PI(1), a.PI(2))
	n5 := a.NewAnd(n3, n4)
	n7 := a.NewAnd(n5, a.PI(3))
	n6 := a.NewAnd(n3, a.PI(3)) // external fanout of n3
	a.AddPO(n7)
	a.AddPO(n6)
	fc := NewFFCCollapser(a, 16)
	batches := fc.Collapse(gpu.New(1))
	owner := map[int32]int32{}
	for _, b := range batches {
		for _, c := range b {
			for _, n := range c.Nodes {
				owner[n] = c.Root
			}
		}
	}
	if owner[n3.Var()] == n7.Var() {
		t.Errorf("node with external fanout absorbed into wrong cone")
	}
	if owner[n4.Var()] != n7.Var() || owner[n5.Var()] != n7.Var() {
		t.Errorf("MFFC members not absorbed: %v", owner)
	}
}

func TestProgramLinearizeAndResolve(t *testing.T) {
	// (x0 + x1) * !x2 over three leaves.
	tree := &factor.Tree{Kind: factor.KindAnd, Children: []*factor.Tree{
		{Kind: factor.KindOr, Children: []*factor.Tree{
			{Kind: factor.KindLit, Var: 0},
			{Kind: factor.KindLit, Var: 1},
		}},
		{Kind: factor.KindLit, Var: 2, Neg: true},
	}}
	prog := Linearize(tree, false)
	if len(prog.Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(prog.Ops))
	}
	// Execute against a scratch AIG.
	a := aig.New(3)
	a.EnableStrash()
	leaves := []aig.Lit{a.PI(0), a.PI(1), a.PI(2)}
	results := make([]aig.Lit, len(prog.Ops))
	for i, op := range prog.Ops {
		results[i] = a.NewAnd(Resolve(op.A, leaves, results), Resolve(op.B, leaves, results))
	}
	root := Resolve(prog.Root, leaves, results)
	a.AddPO(root)
	for v := 0; v < 8; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		want := (in[0] || in[1]) && !in[2]
		if a.EvalOnce(in)[0] != want {
			t.Errorf("program eval wrong at %v", in)
		}
	}
}

func TestLinearizeComplement(t *testing.T) {
	tree := &factor.Tree{Kind: factor.KindLit, Var: 0}
	prog := Linearize(tree, true)
	if len(prog.Ops) != 0 || !prog.Root.IsCompl() {
		t.Errorf("complemented literal program wrong: %+v", prog)
	}
}

// reimplementCone builds a Replacement that reimplements the cone's
// function exactly (resynthesized through ISOP+factoring).
func reimplementCone(a *aig.AIG, cone *Cone) Replacement {
	tt := cut.ConeTruth(a, aig.MakeLit(cone.Root, false), cone.Leaves)
	tree, compl := factor.FactorTT(tt)
	return Replacement{Cone: cone, Prog: Linearize(tree, compl)}
}

func TestApplyReplacementsPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6, 150, 4)
		d := gpu.New(1 + rng.Intn(4))
		fc := NewFFCCollapser(a, 8)
		batches := fc.Collapse(d)
		var reps []Replacement
		for bi := range batches {
			for ci := range batches[bi] {
				cone := &batches[bi][ci]
				if len(cone.Leaves) == 0 {
					continue // constant cone
				}
				reps = append(reps, reimplementCone(a, cone))
			}
		}
		out := ApplyReplacements(d, a, reps)
		if err := out.Check(); err != nil {
			t.Log(err)
			return false
		}
		return simEqual(a, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestApplyReplacementsSubset(t *testing.T) {
	// Replacing only some cones must also preserve the function.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 7, 200, 5)
		d := gpu.New(2)
		fc := NewFFCCollapser(a, 10)
		batches := fc.Collapse(d)
		var reps []Replacement
		for bi := range batches {
			for ci := range batches[bi] {
				cone := &batches[bi][ci]
				if len(cone.Leaves) == 0 || rng.Intn(2) == 0 {
					continue
				}
				reps = append(reps, reimplementCone(a, cone))
			}
		}
		out := ApplyReplacements(d, a, reps)
		return out.Check() == nil && simEqual(a, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestApplyReplacementsEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := aig.Random(rng, 5, 80, 3)
	out := ApplyReplacements(gpu.New(1), a, nil)
	if out.NumAnds() > a.NumAnds() {
		t.Errorf("empty replacement grew the network: %d -> %d nodes", a.NumAnds(), out.NumAnds())
	}
	if !simEqual(a, out) {
		t.Errorf("function changed")
	}
}

func simEqual(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false
	}
	ins := make([][]uint64, a.NumPIs())
	for i := range ins {
		r := rand.New(rand.NewSource(int64(i)*104729 + 7))
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

// verifyDisjoint checks Theorem 1 on a collapse result: no AND node may
// belong to two cones, and together the cones must cover every AND node
// reachable from the POs.
func verifyDisjoint(a *aig.AIG, batches [][]Cone) error {
	owner := make([]int32, a.NumObjs())
	for i := range owner {
		owner[i] = -1
	}
	for _, batch := range batches {
		for _, cone := range batch {
			for _, n := range cone.Nodes {
				if owner[n] >= 0 {
					return fmt.Errorf("core: node %d in cones rooted at %d and %d", n, owner[n], cone.Root)
				}
				owner[n] = cone.Root
			}
		}
	}
	for _, id := range a.TopoOrder(true) {
		if owner[id] < 0 {
			return fmt.Errorf("core: reachable node %d not covered by any cone", id)
		}
	}
	return nil
}

// verifyFFC checks the fanout-free property: every interior (non-root) node
// of each cone has all of its fanouts inside the same cone.
func verifyFFC(a *aig.AIG, batches [][]Cone) error {
	owner := make([]int32, a.NumObjs())
	for i := range owner {
		owner[i] = -1
	}
	for _, batch := range batches {
		for _, cone := range batch {
			for _, n := range cone.Nodes {
				owner[n] = cone.Root
			}
		}
	}
	refs := make([][]int32, a.NumObjs())
	a.ForEachAnd(func(id int32) {
		refs[a.Fanin0(id).Var()] = append(refs[a.Fanin0(id).Var()], id)
		refs[a.Fanin1(id).Var()] = append(refs[a.Fanin1(id).Var()], id)
	})
	poRef := make([]bool, a.NumObjs())
	for _, p := range a.POs() {
		poRef[p.Var()] = true
	}
	for _, batch := range batches {
		for _, cone := range batch {
			for _, n := range cone.Nodes {
				if n == cone.Root {
					continue
				}
				if poRef[n] {
					return fmt.Errorf("core: interior node %d of cone %d drives a PO", n, cone.Root)
				}
				for _, fo := range refs[n] {
					if owner[fo] != cone.Root {
						return fmt.Errorf("core: interior node %d of cone %d has external fanout %d", n, cone.Root, fo)
					}
				}
			}
		}
	}
	return nil
}
