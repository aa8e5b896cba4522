package aig

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLiteralEncoding(t *testing.T) {
	l := MakeLit(7, true)
	if l.Var() != 7 || !l.IsCompl() {
		t.Fatalf("MakeLit(7,true) = %v", l)
	}
	if l.Not().IsCompl() {
		t.Errorf("Not should clear complement")
	}
	if l.Regular() != MakeLit(7, false) {
		t.Errorf("Regular = %v", l.Regular())
	}
	if l.NotCond(false) != l || l.NotCond(true) != l.Not() {
		t.Errorf("NotCond wrong")
	}
	if ConstTrue != ConstFalse.Not() {
		t.Errorf("const literals inconsistent")
	}
}

func TestTrivialSimplifications(t *testing.T) {
	a := New(2)
	x, y := a.PI(0), a.PI(1)
	cases := []struct {
		f0, f1, want Lit
	}{
		{x, x, x},
		{x, x.Not(), ConstFalse},
		{x, ConstFalse, ConstFalse},
		{ConstFalse, y, ConstFalse},
		{x, ConstTrue, x},
		{ConstTrue, y, y},
	}
	for _, c := range cases {
		if got := a.NewAnd(c.f0, c.f1); got != c.want {
			t.Errorf("NewAnd(%v,%v) = %v, want %v", c.f0, c.f1, got, c.want)
		}
	}
	if a.NumAnds() != 0 {
		t.Errorf("trivial cases must not create nodes, got %d", a.NumAnds())
	}
}

func TestStrashReuse(t *testing.T) {
	a := New(2)
	a.EnableStrash()
	x, y := a.PI(0), a.PI(1)
	l1 := a.NewAnd(x, y)
	l2 := a.NewAnd(y, x) // commuted
	l3 := a.NewAnd(x.Not(), y)
	if l1 != l2 {
		t.Errorf("strash must merge commuted fanins: %v vs %v", l1, l2)
	}
	if l1 == l3 {
		t.Errorf("different functions must not merge")
	}
	if a.NumAnds() != 2 {
		t.Errorf("NumAnds = %d, want 2", a.NumAnds())
	}
}

func TestGateSemantics(t *testing.T) {
	a := New(3)
	a.EnableStrash()
	x, y, z := a.PI(0), a.PI(1), a.PI(2)
	a.AddPO(a.NewAnd(x, y))
	a.AddPO(a.Or(x, y))
	a.AddPO(a.Xor(x, y))
	a.AddPO(a.Mux(x, y, z))
	a.AddPO(a.Maj3(x, y, z))
	for v := 0; v < 8; v++ {
		in := []bool{v&1 != 0, v&2 != 0, v&4 != 0}
		out := a.EvalOnce(in)
		if out[0] != (in[0] && in[1]) {
			t.Errorf("AND(%v) = %v", in, out[0])
		}
		if out[1] != (in[0] || in[1]) {
			t.Errorf("OR(%v) = %v", in, out[1])
		}
		if out[2] != (in[0] != in[1]) {
			t.Errorf("XOR(%v) = %v", in, out[2])
		}
		wantMux := in[2]
		if in[0] {
			wantMux = in[1]
		}
		if out[3] != wantMux {
			t.Errorf("MUX(%v) = %v", in, out[3])
		}
		maj := (in[0] && in[1]) || (in[0] && in[2]) || (in[1] && in[2])
		if out[4] != maj {
			t.Errorf("MAJ(%v) = %v", in, out[4])
		}
	}
}

func TestLevels(t *testing.T) {
	a := New(4)
	a.EnableStrash()
	n1 := a.NewAnd(a.PI(0), a.PI(1))
	n2 := a.NewAnd(a.PI(2), a.PI(3))
	n3 := a.NewAnd(n1, n2)
	n4 := a.NewAnd(n3, a.PI(0))
	a.AddPO(n4)
	lv := a.NodeLevels()
	if lv[n1.Var()] != 1 || lv[n2.Var()] != 1 || lv[n3.Var()] != 2 || lv[n4.Var()] != 3 {
		t.Errorf("levels = %v", lv)
	}
	if a.Levels() != 3 {
		t.Errorf("Levels = %d, want 3", a.Levels())
	}
}

func TestTopoOrderProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		a := Random(rng, 6, 80, 4)
		order := a.TopoOrder(false)
		pos := make(map[int32]int)
		for i, id := range order {
			pos[id] = i
		}
		for _, id := range order {
			for _, f := range [2]Lit{a.Fanin0(id), a.Fanin1(id)} {
				v := f.Var()
				if a.IsAnd(v) && pos[v] >= pos[id] {
					t.Fatalf("trial %d: fanin %d not before node %d", trial, v, id)
				}
			}
		}
	}
}

func TestCompactRemovesDangling(t *testing.T) {
	a := New(3)
	a.EnableStrash()
	used := a.NewAnd(a.PI(0), a.PI(1))
	a.NewAnd(a.PI(1), a.PI(2)) // dangling
	a.AddPO(used.Not())
	c, mp := a.Compact()
	if c.NumAnds() != 1 {
		t.Fatalf("compact NumAnds = %d, want 1", c.NumAnds())
	}
	if got := mp[used.Var()]; got.Var() == 0 {
		t.Errorf("live node mapped to constant")
	}
	if c.PO(0).IsCompl() != true {
		t.Errorf("PO complement lost")
	}
}

func TestRehashMergesDuplicates(t *testing.T) {
	a := New(2)
	x, y := a.PI(0), a.PI(1)
	// Two structurally identical nodes created without strashing.
	d1 := a.AddAndUnchecked(x, y)
	d2 := a.AddAndUnchecked(x, y)
	top := a.AddAndUnchecked(d1, d2.Not())
	a.AddPO(top)
	r := a.Rehash()
	// d1 & !d2 == f & !f == const0, so everything collapses.
	if r.NumAnds() != 0 {
		t.Errorf("rehash NumAnds = %d, want 0", r.NumAnds())
	}
	if r.PO(0) != ConstFalse {
		t.Errorf("rehash PO = %v, want const0", r.PO(0))
	}
}

func TestFanoutCounts(t *testing.T) {
	// The paper's Figure 2 structure in spirit: node 3 drives both node 7's
	// cone and an external node.
	a := New(4)
	a.EnableStrash()
	n3 := a.NewAnd(a.PI(0), a.PI(1))
	n4 := a.NewAnd(a.PI(1), a.PI(2))
	n5 := a.NewAnd(n3, n4)
	n7 := a.NewAnd(n5, a.PI(3))
	n6 := a.NewAnd(n3, a.PI(3)) // external fanout of n3
	a.AddPO(n7)
	a.AddPO(n6)
	counts := a.FanoutCounts()
	for _, c := range []struct {
		lit  Lit
		want int32
	}{{n3, 2}, {n4, 1}, {n5, 1}, {n7, 1}, {n6, 1}, {a.PI(1), 2}, {a.PI(3), 2}} {
		if got := counts[c.lit.Var()]; got != c.want {
			t.Errorf("FanoutCounts[%v] = %d, want %d", c.lit, got, c.want)
		}
	}
}

func TestReplaceNodeCascades(t *testing.T) {
	// Figure 4 scenario: replacing a node makes two of its fanouts become
	// structural duplicates, which must cascade.
	a := New(3)
	a.EnableStrash()
	x, y, z := a.PI(0), a.PI(1), a.PI(2)
	n2 := a.NewAnd(x, y)
	n5 := a.NewAnd(y, z)
	n3 := a.NewAnd(n2, z)         // fanout of n2
	n4 := a.NewAnd(n5, z)         // fanout of n5 — duplicate of n3 after replace
	top := a.NewAnd(n3, n4.Not()) // uses both
	a.AddPO(top)
	a.EnableFanouts()
	// Replace n2 by n5: n3 becomes (n5 & z), a duplicate of n4, so the
	// cascade replaces n3 by n4, making top = n4 & !n4 = const0.
	a.ReplaceNode(n2.Var(), n5)
	if err := a.Check(); err != nil {
		t.Fatalf("Check after replace: %v", err)
	}
	if a.PO(0) != ConstFalse {
		t.Errorf("PO = %v, want const0 after cascade", a.PO(0))
	}
}

func TestReplaceNodePreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		a := Random(rng, 5, 60, 3)
		a.EnableStrash()
		a.EnableFanouts()
		// Find an AND node with an equivalent rebuilt literal: pick a node
		// and replace it with a freshly built copy of itself (same fanins).
		var target int32 = -1
		a.ForEachAnd(func(id int32) {
			if target < 0 && a.FanoutCount(id) > 0 {
				target = id
			}
		})
		if target < 0 {
			continue
		}
		before := collectSim(a, rng.Int63())
		// Build an equivalent node: AND of the same fanins through
		// double negation — yields the same node by strashing, so instead
		// replace with a re-expressed version: n = !(!f0 | !f1) is the same
		// node. Use the node's fanin pair to build an equivalent 2-node
		// structure: m = f0 & f1 (strash returns target itself), so test
		// replacement with an equal node from a manual duplicate.
		dup := a.AddAndUnchecked(a.Fanin0(target), a.Fanin1(target))
		a.EnableStrash() // rebuild: AddAndUnchecked bypassed hashing
		a.EnableFanouts()
		a.ReplaceNode(target, dup)
		if err := a.Check(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		after := collectSim(a, rng.Int63())
		_ = before
		_ = after
		// Same seed-independent check: compare on common patterns.
		if !sameSim(a, trial, before) {
			t.Fatalf("trial %d: function changed by ReplaceNode", trial)
		}
	}
}

// collectSim simulates the AIG on patterns derived deterministically from
// the PI index, so results are comparable across structurally different but
// functionally equal AIGs.
func collectSim(a *AIG, _ int64) [][]uint64 {
	ins := make([][]uint64, a.NumPIs())
	for i := range ins {
		r := rand.New(rand.NewSource(int64(i) * 7919))
		ins[i] = []uint64{r.Uint64(), r.Uint64()}
	}
	return a.Simulate(ins)
}

func sameSim(a *AIG, _ int, want [][]uint64) bool {
	got := collectSim(a, 0)
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				return false
			}
		}
	}
	return true
}

func TestSweepDangling(t *testing.T) {
	a := New(2)
	a.EnableStrash()
	keep := a.NewAnd(a.PI(0), a.PI(1))
	d1 := a.NewAnd(a.PI(0), a.PI(1).Not())
	a.NewAnd(d1, a.PI(1)) // dangling chain
	a.AddPO(keep)
	a.EnableFanouts()
	removed := a.SweepDangling()
	if removed != 2 {
		t.Errorf("removed = %d, want 2", removed)
	}
	if a.NumAnds() != 1 {
		t.Errorf("NumAnds = %d, want 1", a.NumAnds())
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	a := New(1)
	a.EnableStrash()
	l := a.NewAnd(a.PI(0), a.PI(0).Not())
	_ = l
	a.fanin0 = append(a.fanin0, Lit(9999))
	a.fanin1 = append(a.fanin1, Lit(2))
	if err := a.Check(); err == nil {
		t.Errorf("Check missed out-of-range fanin")
	}
}

func TestQuickCompactPreservesFunction(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 6, 120, 5)
		want := collectSim(a, 0)
		c, _ := a.Compact()
		return sameSim(c, 0, want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestQuickRehashPreservesFunction(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, 7, 150, 4)
		want := collectSim(a, 0)
		r := a.Rehash()
		if r.NumAnds() > a.NumAnds() {
			return false // rehash must never grow the network
		}
		return sameSim(r, 0, want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestRandomIsTopo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := Random(rng, 8, 200, 6)
	if !a.Canonical() {
		t.Errorf("Random must produce id-topological AIGs")
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(2)
	a.EnableStrash()
	a.AddPO(a.NewAnd(a.PI(0), a.PI(1)))
	c := a.Clone()
	c.EnableStrash()
	c.AddPO(c.NewAnd(c.PI(0), c.PI(1).Not()))
	if a.NumPOs() != 1 || c.NumPOs() != 2 {
		t.Errorf("clone not independent: %d, %d", a.NumPOs(), c.NumPOs())
	}
}
