package factor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/truth"
)

func randomTT(rng *rand.Rand, n int) truth.TT {
	t := truth.New(n)
	for i := range t.Words {
		t.Words[i] = rng.Uint64()
	}
	return t
}

func TestFactorConstants(t *testing.T) {
	if Factor(truth.SOP{NVars: 3}).Kind != KindConst0 {
		t.Errorf("empty SOP must factor to const0")
	}
	one := truth.SOP{NVars: 3, Cubes: []truth.Cube{{}}}
	if Factor(one).Kind != KindConst1 {
		t.Errorf("tautology must factor to const1")
	}
}

func TestFactorSingleCube(t *testing.T) {
	s := truth.SOP{NVars: 4, Cubes: []truth.Cube{
		truth.Cube{}.WithLit(0, true).WithLit(2, false).WithLit(3, true),
	}}
	tr := Factor(s)
	if !tr.eval(4).Equal(s.TT()) {
		t.Fatalf("cube factoring wrong: %v", tr)
	}
	if tr.NumAnds() != 2 {
		t.Errorf("NumAnds = %d, want 2 for a 3-literal cube", tr.NumAnds())
	}
}

func TestFactorSharesDivisor(t *testing.T) {
	// f = a*c + a*d + b*c + b*d = (a+b)*(c+d): 8 literals as SOP, 4 after
	// factoring, i.e. 3 AND nodes instead of 7.
	n := 4
	mk := func(v1, v2 int) truth.Cube {
		return truth.Cube{}.WithLit(v1, true).WithLit(v2, true)
	}
	s := truth.SOP{NVars: n, Cubes: []truth.Cube{mk(0, 2), mk(0, 3), mk(1, 2), mk(1, 3)}}
	tr := Factor(s)
	if !tr.eval(n).Equal(s.TT()) {
		t.Fatalf("factored function differs: %v", tr)
	}
	if got := tr.NumAnds(); got != 3 {
		t.Errorf("NumAnds = %d, want 3 for (a+b)(c+d)", got)
	}
}

func TestFactorCommonCube(t *testing.T) {
	// f = a*b*c + a*b*d = a*b*(c+d)
	n := 4
	c1 := truth.Cube{}.WithLit(0, true).WithLit(1, true).WithLit(2, true)
	c2 := truth.Cube{}.WithLit(0, true).WithLit(1, true).WithLit(3, true)
	s := truth.SOP{NVars: n, Cubes: []truth.Cube{c1, c2}}
	tr := Factor(s)
	if !tr.eval(n).Equal(s.TT()) {
		t.Fatalf("factored function differs")
	}
	if got := tr.NumAnds(); got != 3 {
		t.Errorf("NumAnds = %d, want 3 for ab(c+d)", got)
	}
}

func TestQuickFactorPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		tt := randomTT(rng, n)
		sop := truth.ISOP(tt, truth.TT{})
		tr := Factor(sop)
		return tr.eval(n).Equal(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickFactorNeverWorseThanSOP(t *testing.T) {
	// The factored form should never need more AND nodes than the flat SOP.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		tt := randomTT(rng, n)
		sop := truth.ISOP(tt, truth.TT{})
		flat := sumTree(sop.Cubes)
		return Factor(sop).NumAnds() <= flat.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAlgebraicDivision(t *testing.T) {
	// f = a*c + a*d + b: f / (c+d) = {a}, remainder {b}
	a := truth.Cube{}.WithLit(0, true)
	b := truth.Cube{}.WithLit(1, true)
	c := truth.Cube{}.WithLit(2, true)
	d := truth.Cube{}.WithLit(3, true)
	f := []truth.Cube{cubeProduct(a, c), cubeProduct(a, d), b}
	q, r := divide(f, []truth.Cube{c, d})
	if len(q) != 1 || q[0] != a {
		t.Errorf("quotient = %v", q)
	}
	if len(r) != 1 || r[0] != b {
		t.Errorf("remainder = %v", r)
	}
}

func TestDivisionNoQuotient(t *testing.T) {
	a := truth.Cube{}.WithLit(0, true)
	b := truth.Cube{}.WithLit(1, true)
	q, r := divide([]truth.Cube{a}, []truth.Cube{b})
	if q != nil || len(r) != 1 {
		t.Errorf("q=%v r=%v", q, r)
	}
}

func TestBuildAIGMatchesTree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		tt := randomTT(rng, n)
		tr, compl := FactorTT(tt)
		a := aig.New(n)
		a.EnableStrash()
		leaves := make([]aig.Lit, n)
		for i := range leaves {
			leaves[i] = a.PI(i)
		}
		root := buildAIG(a, tr, leaves).NotCond(compl)
		a.AddPO(root)
		// Check against the truth table by exhaustive simulation.
		for m := 0; m < 1<<n; m++ {
			in := make([]bool, n)
			for v := 0; v < n; v++ {
				in[v] = m>>uint(v)&1 != 0
			}
			if a.EvalOnce(in)[0] != tt.Bit(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBuildAIGNodeBudget(t *testing.T) {
	// Structural hashing may only reduce the node count versus NumAnds.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		tt := randomTT(rng, n)
		tr, _ := FactorTT(tt)
		a := aig.New(n)
		a.EnableStrash()
		leaves := make([]aig.Lit, n)
		for i := range leaves {
			leaves[i] = a.PI(i)
		}
		buildAIG(a, tr, leaves)
		return a.NumAnds() <= tr.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFactorXorQuality(t *testing.T) {
	// XOR has no algebraic structure; factoring must still terminate and be
	// correct, with the flat SOP cost (2 cubes, 4 literals -> 3 ANDs).
	n := 2
	tt := truth.New(n).Xor(truth.Var(n, 0), truth.Var(n, 1))
	tr, compl := FactorTT(tt)
	want := tt
	if compl {
		want = truth.New(n).Not(tt)
	}
	if !tr.eval(n).Equal(want) {
		t.Fatalf("xor factored wrong")
	}
	if tr.NumAnds() > 3 {
		t.Errorf("xor NumAnds = %d, want <= 3", tr.NumAnds())
	}
}

// buildAIG constructs the tree in the AIG, mapping tree variable v to
// leaves[v], and returns the root literal. n-ary operators are built as
// balanced binary trees; structural hashing in the target AIG provides
// sharing.
func buildAIG(a *aig.AIG, t *Tree, leaves []aig.Lit) aig.Lit {
	switch t.Kind {
	case KindConst0:
		return aig.ConstFalse
	case KindConst1:
		return aig.ConstTrue
	case KindLit:
		return leaves[t.Var].NotCond(t.Neg)
	case KindAnd, KindOr:
		lits := make([]aig.Lit, len(t.Children))
		for i, c := range t.Children {
			lits[i] = buildAIG(a, c, leaves)
		}
		return buildBalanced(a, lits, t.Kind == KindOr)
	}
	panic("factor: bad tree kind")
}

// buildBalanced combines lits with AND (or OR when isOr) as a balanced
// binary tree.
func buildBalanced(a *aig.AIG, lits []aig.Lit, isOr bool) aig.Lit {
	for len(lits) > 1 {
		next := lits[:0]
		for i := 0; i+1 < len(lits); i += 2 {
			if isOr {
				next = append(next, a.Or(lits[i], lits[i+1]))
			} else {
				next = append(next, a.NewAnd(lits[i], lits[i+1]))
			}
		}
		if len(lits)%2 == 1 {
			next = append(next, lits[len(lits)-1])
		}
		lits = next
	}
	return lits[0]
}

// eval computes the truth table of the tree over n variables.
func (t *Tree) eval(n int) truth.TT {
	switch t.Kind {
	case KindConst0:
		return truth.Const(n, false)
	case KindConst1:
		return truth.Const(n, true)
	case KindLit:
		v := truth.Var(n, t.Var)
		if t.Neg {
			return truth.New(n).Not(v)
		}
		return v
	case KindAnd:
		res := truth.Const(n, true)
		for _, c := range t.Children {
			res.And(res, c.eval(n))
		}
		return res
	case KindOr:
		res := truth.Const(n, false)
		for _, c := range t.Children {
			res.Or(res, c.eval(n))
		}
		return res
	}
	panic("factor: bad tree kind")
}
