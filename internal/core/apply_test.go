package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/cec"
	"aigre/internal/core"
	"aigre/internal/cut"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
	"aigre/internal/refactor"
	"aigre/internal/resub"
	"aigre/internal/rewrite"
)

// TestApplyStaleCandidates is the revalidation property of core.Apply for
// every pass that applies candidates evaluated on an earlier graph: rw, rwz,
// rs and the Table I refactoring ablation. Each pass's candidates are
// evaluated on the unchanged network and then applied through Apply with
// revalidation in a seeded shuffled order instead of id order, so that many
// go stale. The result must be a sound AIG, equivalent to the input (a full
// check on the small random networks, sampling on the suite) and no larger.
func TestApplyStaleCandidates(t *testing.T) {
	type network struct {
		name  string
		a     *aig.AIG
		small bool
	}
	var nets []network
	for seed := range int64(8) {
		a := aig.Random(rand.New(rand.NewSource(seed)), 8, 300, 4).Rehash()
		nets = append(nets, network{fmt.Sprintf("random%d", seed), a, true})
	}
	for _, c := range bench.Suite(1) {
		nets = append(nets, network{c.Name, c.Build(), false})
	}
	passes := []struct {
		name  string
		cands func(d *gpu.Device, work *aig.AIG) []core.Candidate
	}{
		{"rw", func(d *gpu.Device, work *aig.AIG) []core.Candidate {
			return rewrite.Candidates(d, work, rewrite.Options{Cache: rcache.New()})
		}},
		{"rwz", func(d *gpu.Device, work *aig.AIG) []core.Candidate {
			return rewrite.Candidates(d, work, rewrite.Options{ZeroGain: true, Cache: rcache.New()})
		}},
		{"rs", resub.Candidates},
		{"rf-seqreplace", func(d *gpu.Device, work *aig.AIG) []core.Candidate {
			return refactor.Candidates(d, work, refactor.Options{Cache: rcache.New()})
		}},
	}
	for _, p := range passes {
		total, totalStale := 0, 0
		for i, n := range nets {
			seed := int64(1000*i + len(p.name))
			var es core.EvalScratch
			var cs cut.Scratch
			cands, stale := 0, 0
			out := core.EditInPlace(n.a, func(work *aig.AIG) func(int32) {
				cc := p.cands(gpu.New(1), work)
				rand.New(rand.NewSource(seed)).Shuffle(len(cc), func(i, j int) { cc[i], cc[j] = cc[j], cc[i] })
				for k := range cc {
					if es.Apply(work, &cs, &cc[k], true) == core.Stale {
						stale++
					}
				}
				cands = len(cc)
				return nil
			})
			total, totalStale = total+cands, totalStale+stale
			what := fmt.Sprintf("%s on %s, shuffle seed %d (%d candidates, %d stale)", p.name, n.name, seed, cands, stale)
			if err := aig.Check(out); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if out.NumAnds() > n.a.NumAnds() {
				t.Errorf("%s: %d ANDs, input %d", what, out.NumAnds(), n.a.NumAnds())
			}
			if n.small {
				if res, err := cec.Check(n.a, out, cec.Options{}); err != nil || !res.Equivalent {
					t.Errorf("%s: not equivalent (%+v, %v)", what, res, err)
				}
			} else if _, refuted := cec.SampleRefute(n.a, out, 4, seed); refuted {
				t.Errorf("%s: not equivalent", what)
			}
		}
		t.Logf("%s: %d of %d candidates stale", p.name, totalStale, total)
		if totalStale == 0 {
			t.Errorf("%s: no candidate went stale; the property is vacuous", p.name)
		}
	}
}

// TestApplyDivisorThroughRoot: an earlier replacement reroutes the cone of a
// resubstitution divisor d through the root r the candidate replaces by d.
// Every other check still passes (d computes r's function over the leaves),
// so only the walk of d that avoids r stops the substitution from closing a
// loop.
func TestApplyDivisorThroughRoot(t *testing.T) {
	a := aig.New(3)
	a.EnableStrash()
	x, y, z := a.PI(0), a.PI(1), a.PI(2)
	r := a.NewAnd(a.NewAnd(x, y), z) // x&y&z
	yz := a.NewAnd(y, z)
	d := a.NewAnd(x, yz) // x&y&z, structurally apart from r
	a.AddPO(r)
	a.AddPO(d)
	a.EnableFanouts()
	leaves := []int32{x.Var(), y.Var(), z.Var()}
	c := core.Candidate{Root: r.Var(), Leaves: leaves, Inputs: []aig.Lit{d},
		Prog: core.Program{Root: core.LeafRef(0, false)}, ZeroGain: true}

	// y&z = r | (!x&y&z): after this, d's cone passes through r.
	a.ReplaceNode(yz.Var(), a.Or(r, a.NewAnd(a.NewAnd(x.Not(), y), z)))
	var es core.EvalScratch
	var cs cut.Scratch
	if _, ok := cs.CutTruth(a, d, leaves, -1); !ok || a.IsDeleted(d.Var()) {
		t.Fatal("setup: d must stay live and bounded by the leaves")
	}
	if got := es.Apply(a, &cs, &c, true); got != core.Stale {
		t.Fatalf("Apply = %v, want Stale", got)
	}
	if err := aig.Check(a); err != nil {
		t.Fatal(err)
	}
}
