package core

import (
	"math"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/factor"
)

// buildChain constructs x0&x1&x2&x3 as a left-deep chain with fanouts so the
// MFFC boundaries are controlled explicitly.
func buildChain(t *testing.T) (*aig.AIG, []aig.Lit, []aig.Lit) {
	t.Helper()
	a := aig.New(4)
	a.EnableStrash()
	n1 := a.NewAnd(a.PI(0), a.PI(1))
	n2 := a.NewAnd(n1, a.PI(2))
	n3 := a.NewAnd(n2, a.PI(3))
	a.AddPO(n3)
	a.EnableFanouts()
	return a, []aig.Lit{a.PI(0), a.PI(1), a.PI(2), a.PI(3)}, []aig.Lit{n1, n2, n3}
}

func litTree(v int, neg bool) *factor.Tree {
	return &factor.Tree{Kind: factor.KindLit, Var: v, Neg: neg}
}

func andTree(cs ...*factor.Tree) *factor.Tree {
	return &factor.Tree{Kind: factor.KindAnd, Children: cs}
}

func TestMffcMembersBounded(t *testing.T) {
	a, _, nodes := buildChain(t)
	n1, n2, n3 := nodes[0], nodes[1], nodes[2]
	var s EvalScratch
	// Full MFFC of n3 is the whole chain, root first.
	if full := s.MffcMembers(a, n3.Var(), nil); len(full) != 3 || full[0] != n3.Var() {
		t.Fatalf("full MFFC = %v, want the 3-node chain from n3", full)
	}
	// Bounded by leaf n1: the dereference must stop there.
	bounded := s.MffcMembers(a, n3.Var(), []int32{n1.Var(), 3, 4})
	if len(bounded) != 2 || !s.InMffc(n2.Var()) || !s.InMffc(n3.Var()) || s.InMffc(n1.Var()) {
		t.Fatalf("bounded MFFC = %v, want {n2,n3}", bounded)
	}
}

func TestDryRunCostCountsMisses(t *testing.T) {
	a, pis, nodes := buildChain(t)
	// A tree the network does not contain: (x0&x3)&(x1&x2).
	tree := andTree(andTree(litTree(0, false), litTree(3, false)),
		andTree(litTree(1, false), litTree(2, false)))
	prog := Linearize(tree, false)
	var s EvalScratch
	s.MffcMembers(a, nodes[2].Var(), nil)
	if cost := s.DryRunCost(a, prog, pis, math.MaxInt); cost != 3 {
		t.Errorf("cost = %d, want 3 fresh nodes", cost)
	}
}

func TestDryRunCostFreeHitsOutsideMffc(t *testing.T) {
	a, pis, nodes := buildChain(t)
	n2, n3 := nodes[1], nodes[2]
	// Rebuild exactly the existing chain. With the MFFC of n3 cut off at n2
	// the hits on n1 and n2 are free; only reusing n3 itself is charged.
	tree := andTree(andTree(andTree(litTree(0, false), litTree(1, false)), litTree(2, false)), litTree(3, false))
	prog := Linearize(tree, false)
	var s EvalScratch
	s.MffcMembers(a, n3.Var(), []int32{n2.Var(), 4})
	if cost := s.DryRunCost(a, prog, pis, math.MaxInt); cost != 1 {
		t.Errorf("cost = %d, want 1 (strash hits below the MFFC are free)", cost)
	}
	// With the full MFFC of n3 declared, hitting n3 (the deepest hit)
	// revives its whole chain.
	s.MffcMembers(a, n3.Var(), nil)
	if cost := s.DryRunCost(a, prog, pis, math.MaxInt); cost != 3 {
		t.Errorf("cost = %d, want 3 (full revival through the chain)", cost)
	}
}

func TestDryRunCostRevivalCountedOnce(t *testing.T) {
	a, pis, nodes := buildChain(t)
	n3 := nodes[2]
	// Tree that reuses n1 twice: (x0&x1) & ((x0&x1) & x2): after
	// linearization the op (x0&x1) resolves to n1 both times; revival of n1
	// must be charged once, plus the fresh top nodes.
	sub := andTree(litTree(0, false), litTree(1, false))
	tree := andTree(sub, andTree(andTree(litTree(0, false), litTree(1, false)), litTree(2, false)))
	prog := Linearize(tree, false)
	var s EvalScratch
	s.MffcMembers(a, n3.Var(), nil)
	// Hits: n1 (revive: 1), n2 = (n1&x2) (revive: 1); the top (n1 & n2) is
	// not in the network -> 1 miss. Total 3.
	if cost := s.DryRunCost(a, prog, pis, math.MaxInt); cost != 3 {
		t.Errorf("cost = %d, want 3 (n1+n2 revived once, one miss)", cost)
	}
}

func TestBuildProgramAvoidingAbortsOnSelf(t *testing.T) {
	a, pis, nodes := buildChain(t)
	n2 := nodes[1]
	// Rebuilding n2's exact structure must abort (avoid = n2) and leave no
	// dangling nodes behind.
	tree := andTree(andTree(litTree(0, false), litTree(1, false)), litTree(2, false))
	prog := Linearize(tree, false)
	before := a.NumAnds()
	var s EvalScratch
	if _, ok := s.BuildProgramAvoiding(a, prog, pis, n2.Var()); ok {
		t.Fatalf("reconstruction of the avoided node must fail")
	}
	if a.NumAnds() != before {
		t.Errorf("abort leaked %d nodes", a.NumAnds()-before)
	}
}

func TestBuildProgramAvoidingBuilds(t *testing.T) {
	a, pis, _ := buildChain(t)
	tree := andTree(litTree(0, false), litTree(3, false))
	prog := Linearize(tree, false)
	var s EvalScratch
	lit, ok := s.BuildProgramAvoiding(a, prog, pis, 9999)
	if !ok {
		t.Fatal("build failed")
	}
	if !a.IsAnd(lit.Var()) {
		t.Errorf("result %v is not an AND node", lit)
	}
}
