package cut

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/truth"
)

// buildDiamond creates a small reconvergent AIG:
// n1=a&b, n2=b&c, n3=n1&n2, PO=n3.
func buildDiamond() (*aig.AIG, aig.Lit) {
	a := aig.New(3)
	a.EnableStrash()
	n1 := a.NewAnd(a.PI(0), a.PI(1))
	n2 := a.NewAnd(a.PI(1), a.PI(2))
	n3 := a.NewAnd(n1, n2)
	a.AddPO(n3)
	return a, n3
}

func TestReconvCutFindsReconvergence(t *testing.T) {
	a, n3 := buildDiamond()
	r := NewReconv(a)
	leaves := r.Cut(n3.Var(), 3)
	// Expanding through both n1 and n2 reaches {a,b,c}: 3 leaves for a
	// 3-node cone thanks to reconvergence on b.
	if len(leaves) != 3 {
		t.Fatalf("leaves = %v", leaves)
	}
	seen := map[int32]bool{}
	for _, l := range leaves {
		seen[l] = true
	}
	for i := 0; i < 3; i++ {
		if !seen[a.PI(i).Var()] {
			t.Errorf("PI %d missing from cut %v", i, leaves)
		}
	}
}

func TestReconvCutRespectsLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := aig.Random(rng, 10, 300, 5)
	r := NewReconv(a)
	for _, k := range []int{2, 4, 8, 12} {
		a.ForEachAnd(func(id int32) {
			leaves := r.Cut(id, k)
			if len(leaves) > k {
				t.Fatalf("cut size %d exceeds limit %d", len(leaves), k)
			}
		})
	}
}

func TestReconvCutIsCut(t *testing.T) {
	// Every PI-to-root path must pass through a leaf: equivalently, the
	// cone truth over the leaves must reproduce the root function.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6, 100, 3)
		r := NewReconv(a)
		ok := true
		a.ForEachAnd(func(id int32) {
			if !ok {
				return
			}
			leaves := r.Cut(id, 6)
			tt := ConeTruth(a, aig.MakeLit(id, false), leaves)
			// Verify by simulation: for random PI assignments, evaluating
			// the cone truth on leaf values must equal the node value.
			for trial := 0; trial < 8; trial++ {
				in := make([]bool, a.NumPIs())
				for i := range in {
					in[i] = rng.Intn(2) == 0
				}
				vals := evalAll(a, in)
				m := 0
				for i, l := range leaves {
					if vals[l] {
						m |= 1 << i
					}
				}
				if tt.Bit(m) != vals[id] {
					ok = false
					return
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// evalAll computes the value of every node for one input assignment.
func evalAll(a *aig.AIG, in []bool) []bool {
	vals := make([]bool, a.NumObjs())
	for i := 0; i < a.NumPIs(); i++ {
		vals[i+1] = in[i]
	}
	for _, id := range a.TopoOrder(false) {
		f0, f1 := a.Fanin0(id), a.Fanin1(id)
		v0 := vals[f0.Var()] != f0.IsCompl()
		v1 := vals[f1.Var()] != f1.IsCompl()
		vals[id] = v0 && v1
	}
	return vals
}

func TestConeNodesTopological(t *testing.T) {
	a, n3 := buildDiamond()
	leaves := []int32{a.PI(0).Var(), a.PI(1).Var(), a.PI(2).Var()}
	nodes := coneNodes(a, n3.Var(), leaves)
	if len(nodes) != 3 {
		t.Fatalf("cone = %v, want 3 nodes", nodes)
	}
	if nodes[len(nodes)-1] != n3.Var() {
		t.Errorf("root must come last: %v", nodes)
	}
}

func TestConeTruthComplementedRoot(t *testing.T) {
	a, n3 := buildDiamond()
	leaves := []int32{a.PI(0).Var(), a.PI(1).Var(), a.PI(2).Var()}
	tt := ConeTruth(a, n3.Not(), leaves)
	want := truth.New(3).And(truth.Var(3, 0), truth.Var(3, 1))
	want.And(want, truth.Var(3, 2)) // a&b & b&c == a&b&c
	want.Not(want)
	if !tt.Equal(want) {
		t.Errorf("complemented cone truth wrong")
	}
}

func TestEnumCuts4Basic(t *testing.T) {
	a, n3 := buildDiamond()
	cuts := EnumCuts4(a, 8)
	cs := cuts[n3.Var()]
	if len(cs) == 0 {
		t.Fatal("no cuts for root")
	}
	// Must contain the PI cut {a,b,c} with truth a&b&c = 0x80 pattern over
	// 3 vars, padded to 4.
	found := false
	for _, c := range cs {
		if c.NLeaves == 3 {
			want := uint16(0x8080) // minterms where x0&x1&x2, any x3
			if c.TT == want {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("PI cut with correct truth not found: %+v", cs)
	}
}

func TestEnumCuts4TruthCorrect(t *testing.T) {
	// Cut truths carry circuit-consistent semantics (see Cut4 docs), so the
	// check evaluates realizable assignments: for random PI vectors, the
	// node's value must equal TT applied to the leaves' values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 5, 60, 2)
		cuts := EnumCuts4(a, 8)
		for trial := 0; trial < 16; trial++ {
			in := make([]bool, a.NumPIs())
			for i := range in {
				in[i] = rng.Intn(2) == 0
			}
			vals := evalAll(a, in)
			bad := false
			a.ForEachAnd(func(id int32) {
				if bad {
					return
				}
				for _, c := range cuts[id] {
					if c.NLeaves == 0 {
						continue
					}
					m := 0
					for i, l := range c.LeafSlice() {
						if vals[l] {
							m |= 1 << i
						}
					}
					if (c.TT>>uint(m)&1 != 0) != vals[id] {
						bad = true
						return
					}
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEnumCuts4Limit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := aig.Random(rng, 8, 200, 4)
	for _, limit := range []int{2, 4, 8} {
		cuts := EnumCuts4(a, limit)
		a.ForEachAnd(func(id int32) {
			if len(cuts[id]) > limit {
				t.Fatalf("node %d has %d cuts, limit %d", id, len(cuts[id]), limit)
			}
		})
	}
}

func TestDominates(t *testing.T) {
	a := Cut4{Leaves: [4]int32{1, 3}, NLeaves: 2}
	b := Cut4{Leaves: [4]int32{1, 2, 3}, NLeaves: 3}
	if !dominates(&a, &b) {
		t.Errorf("{1,3} must dominate {1,2,3}")
	}
	if dominates(&b, &a) {
		t.Errorf("{1,2,3} must not dominate {1,3}")
	}
	c := Cut4{Leaves: [4]int32{1, 4}, NLeaves: 2}
	if dominates(&a, &c) || dominates(&c, &a) {
		t.Errorf("incomparable cuts")
	}
}
