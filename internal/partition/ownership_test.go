package partition

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/bench"
)

// checkOwnership asserts the one-owner partition shape on parts built from
// a: every PO-reachable AND node is a member of exactly one partition,
// members are topological over the partition's inputs, an AND-node input is a
// member of a lower-indexed partition that lists it in outputs, and every
// member another partition or a PO reads is exported.
func checkOwnership(t *testing.T, a *aig.AIG, parts []*part) {
	t.Helper()
	nobj := a.NumObjs()
	owner := make([]int, nobj) // part index + 1
	exported := make([]bool, nobj)
	avail := make([]int, nobj) // part index + 1 whose cone can name the node
	for k, p := range parts {
		if p.index != k {
			t.Fatalf("part %d carries index %d", k, p.index)
		}
		if len(p.members) == 0 {
			t.Errorf("part %d is empty", k)
		}
		for _, in := range p.inputs {
			if avail[in] == k+1 {
				t.Errorf("part %d lists input %d twice", k, in)
			}
			avail[in] = k + 1
			if a.IsPI(in) {
				continue
			}
			if !a.IsAnd(in) || owner[in] == 0 {
				t.Fatalf("part %d input %d is neither a PI nor a member of a lower partition", k, in)
			}
			if !exported[in] {
				t.Errorf("part %d reads node %d, which part %d does not export", k, in, owner[in]-1)
			}
		}
		for _, id := range p.members {
			if !a.IsAnd(id) {
				t.Fatalf("part %d member %d is not an AND node", k, id)
			}
			if owner[id] != 0 {
				t.Fatalf("node %d is a member of parts %d and %d", id, owner[id]-1, k)
			}
			for _, f := range [2]aig.Lit{a.Fanin0(id), a.Fanin1(id)} {
				if v := f.Var(); v != 0 && avail[v] != k+1 {
					t.Fatalf("part %d member %d reads node %d before it is an input or a member", k, id, v)
				}
			}
			owner[id], avail[id] = k+1, k+1
		}
		for _, out := range p.outputs {
			if owner[out] != k+1 {
				t.Fatalf("part %d exports node %d, which it does not own", k, out)
			}
			exported[out] = true
		}
	}

	// Every PO-reachable AND node is owned, and every edge that crosses a
	// partition boundary goes through an export.
	reached := make([]bool, nobj)
	var stack []int32
	for _, po := range a.POs() {
		stack = append(stack, po.Var())
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if !a.IsAnd(id) || reached[id] {
			continue
		}
		reached[id] = true
		if owner[id] == 0 {
			t.Fatalf("PO-reachable node %d is in no partition", id)
		}
		for _, f := range [2]aig.Lit{a.Fanin0(id), a.Fanin1(id)} {
			v := f.Var()
			if a.IsAnd(v) && owner[v] != owner[id] && !exported[v] {
				t.Errorf("node %d (part %d) reads node %d of part %d, which is not exported", id, owner[id]-1, v, owner[v]-1)
			}
			stack = append(stack, v)
		}
	}
	claimedPO := make([]bool, a.NumPOs())
	for k, p := range parts {
		for _, i := range p.poIdx {
			if claimedPO[i] || owner[a.PO(i).Var()] != k+1 {
				t.Errorf("part %d lists PO %d, which it does not own alone", k, i)
			}
			claimedPO[i] = true
		}
	}
	for i, po := range a.POs() {
		if v := po.Var(); a.IsAnd(v) && !claimedPO[i] && !exported[v] {
			t.Errorf("PO %d root %d is neither in its owner's poIdx nor exported", i, v)
		}
	}
}

// TestEveryNodeOwnedOnce checks the partition shape of both builders over
// random networks, every suite family, the deep-narrow generator (as built,
// and strashed so that chains c and c+32 share their nodes and half the POs
// drive an already-owned root) and a network with dangling logic, at three
// target sizes; and that a run over each reports no shared node.
func TestEveryNodeOwnedOnce(t *testing.T) {
	nets := map[string]*aig.AIG{
		"deep_narrow":          bench.DeepNarrow(8, 500),
		"deep_narrow_strashed": bench.DeepNarrow(64, 60).Rehash(),
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nets[fmt.Sprintf("random%d", seed)] = aig.Random(rng, 6+int(seed)*3, 400*int(seed), 5*int(seed))
	}
	for _, c := range bench.Suite(1) {
		nets[c.Name] = c.Build()
	}
	// Dangling logic: AND nodes no PO reaches, which NumAnds counts and cones
	// mode never sees.
	dangling := aig.Random(rand.New(rand.NewSource(9)), 8, 300, 6)
	for k := 0; k < 40; k++ {
		dangling.AddAndUnchecked(dangling.PI(k%8), aig.MakeLit(int32(9+k), k%2 == 0))
	}
	nets["dangling"] = dangling

	pool := testPool(t, 2)
	for name, a := range nets {
		name, a := name, a
		t.Run(name, func(t *testing.T) {
			if !canonicalOrder(a) {
				a, _ = a.Compact()
			}
			n := a.NumAnds()
			for _, target := range []int{n/16 + 1, n/4 + 1, n + 1} {
				cones := buildCones(a, target)
				checkOwnership(t, a, cones)
				for _, p := range cones {
					if len(p.poIdx) == 0 {
						t.Errorf("target %d: cone part %d claims no PO", target, p.index)
					}
				}
				checkOwnership(t, a, buildWindows(a, target))
			}
			for _, mode := range []Mode{Cones, Levels} {
				res, err := Run(context.Background(), a, "b", Options{Split: Split{Mode: mode, TargetSize: n/4 + 1}, Pool: pool})
				if err != nil {
					t.Fatal(err)
				}
				if res.SharedNodes != 0 {
					t.Errorf("%v: %d shared nodes", mode, res.SharedNodes)
				}
			}
		})
	}
}
