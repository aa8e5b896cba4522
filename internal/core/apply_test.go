package core_test

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"sync/atomic"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/alloctest"
	"aigre/internal/bench"
	"aigre/internal/cec"
	"aigre/internal/core"
	"aigre/internal/cut"
	"aigre/internal/flow"
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

// selfRebuildNet is r = (x&y)&z over PIs x, y, z with strash and fanouts,
// and the candidate that rebuilds r from its own structure over the leaves.
func selfRebuildNet() (*aig.AIG, core.Candidate) {
	a := aig.New(3)
	a.EnableStrash()
	x, y, z := a.PI(0), a.PI(1), a.PI(2)
	r := a.NewAnd(a.NewAnd(x, y), z)
	a.AddPO(r)
	a.EnableFanouts()
	return a, core.Candidate{Root: r.Var(), Leaves: []int32{x.Var(), y.Var(), z.Var()},
		Inputs: []aig.Lit{x, y, z}, ZeroGain: true, Prog: core.Program{
			Ops:  []core.Op{{A: core.LeafRef(0, false), B: core.LeafRef(1, false)}, {A: core.OpRef(0, false), B: core.LeafRef(2, false)}},
			Root: core.OpRef(1, false)}}
}

// strashView is the strash lookup of every pair of literals of a: two views
// are equal exactly when no lookup changed.
func strashView(a *aig.AIG) map[[2]aig.Lit]aig.Lit {
	v := map[[2]aig.Lit]aig.Lit{}
	n := aig.Lit(2 * a.NumObjs())
	for f0 := range n {
		for f1 := range n {
			if lit, ok := a.Lookup(f0, f1); ok {
				v[[2]aig.Lit{f0, f1}] = lit
			}
		}
	}
	return v
}

// TestApplySelfRebuild: a zero-gain candidate that reproduces its root is
// Kept by the short cut, whose verdict full revalidation shares, and leaves
// the network and its strash table as they were.
func TestApplySelfRebuild(t *testing.T) {
	a, c := selfRebuildNet()
	var calls, agree int
	defer core.SetSelfRebuildHook(func(holds bool) {
		calls++
		if holds {
			agree++
		}
	})()
	objs, view := a.NumObjs(), strashView(a)
	var es core.EvalScratch
	var cs cut.Scratch
	if got := es.Apply(a, &cs, &c, true); got != core.Kept {
		t.Fatalf("Apply = %v, want Kept", got)
	}
	if calls != 1 || agree != 1 {
		t.Fatalf("short cut taken %d times, confirmed by holds %d times; want 1 and 1", calls, agree)
	}
	if a.NumObjs() != objs {
		t.Errorf("NumObjs %d -> %d", objs, a.NumObjs())
	}
	if got := strashView(a); !maps.Equal(got, view) {
		t.Errorf("strash lookups changed: %v, was %v", got, view)
	}
	if err := aig.Check(a); err != nil {
		t.Fatal(err)
	}
}

// TestApplySelfRebuildExclusions: each candidate the short cut's strict rule
// leaves out goes through full revalidation and keeps that outcome.
func TestApplySelfRebuildExclusions(t *testing.T) {
	cases := []struct {
		name string
		edit func(a *aig.AIG, c *core.Candidate)
		want core.Outcome
	}{
		{"zero gain not accepted", func(a *aig.AIG, c *core.Candidate) { c.ZeroGain = false }, core.Stale},
		{"complemented program root", func(a *aig.AIG, c *core.Candidate) {
			c.Prog.Root = c.Prog.Root.Not() // computes !r: rule 2 fails
		}, core.Stale},
		{"root hit at an intermediate op", func(a *aig.AIG, c *core.Candidate) {
			// r&r folds to r: ops 1 and 2 both resolve to the root.
			c.Prog.Ops = append(c.Prog.Ops, core.Op{A: core.OpRef(1, false), B: core.OpRef(1, false)})
			c.Prog.Root = core.OpRef(2, false)
		}, core.Kept},
		{"divisor input outside the leaves", func(a *aig.AIG, c *core.Candidate) {
			// x&y as one input: the program is r's last AND over a divisor.
			c.Inputs = []aig.Lit{a.Fanin0(c.Root), a.Fanin1(c.Root)}
			c.Prog.Ops = []core.Op{{A: core.LeafRef(0, false), B: core.LeafRef(1, false)}}
			c.Prog.Root = core.OpRef(0, false)
		}, core.Kept},
		{"deleted leaf", func(a *aig.AIG, c *core.Candidate) {
			// Leaves {x&y, z}: then x&y goes, r re-pointed at x.
			xy := a.Fanin0(c.Root)
			if !a.IsAnd(xy.Var()) {
				xy = a.Fanin1(c.Root)
			}
			c.Leaves = []int32{xy.Var(), c.Leaves[2]}
			c.Inputs = []aig.Lit{xy, c.Inputs[2]}
			c.Prog.Ops = []core.Op{{A: core.LeafRef(0, false), B: core.LeafRef(1, false)}}
			c.Prog.Root = core.OpRef(0, false)
			a.ReplaceNode(xy.Var(), a.PI(0))
		}, core.Stale},
	}
	defer core.SetSelfRebuildHook(func(bool) { t.Error("short cut taken") })()
	for _, tc := range cases {
		a, c := selfRebuildNet()
		tc.edit(a, &c)
		var es core.EvalScratch
		var cs cut.Scratch
		if got := es.Apply(a, &cs, &c, true); got != tc.want {
			t.Errorf("%s: Apply = %v, want %v", tc.name, got, tc.want)
		}
		if err := aig.Check(a); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}

// TestApplySelfRebuildOracle runs every pass that revalidates (the device
// rw, rwz and rs inside resyn2, compress2rs and rf_resyn, and the Table I
// refactoring ablation) over the suite with full revalidation beside the
// short cut: holds must accept every candidate the short cut keeps.
func TestApplySelfRebuildOracle(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("three scripts over the suite take minutes under -race; check.sh runs it without")
	}
	var taken, refuted atomic.Int64
	defer core.SetSelfRebuildHook(func(holds bool) {
		taken.Add(1)
		if !holds {
			refuted.Add(1)
		}
	})()
	type run struct {
		name string
		run  func(a *aig.AIG) error
	}
	var runs []run
	for _, script := range []string{flow.Resyn2, flow.CompressRS, flow.RfResyn} {
		runs = append(runs, run{script, func(a *aig.AIG) error {
			_, err := flow.Run(context.Background(), gpu.New(1), a, script, flow.Config{Parallel: true, Cache: rcache.New()})
			return err
		}})
	}
	runs = append(runs, run{"rf-seqreplace", func(a *aig.AIG) error {
		refactor.ParallelSeqReplace(gpu.New(1), a, refactor.Options{Cache: rcache.New()})
		return nil
	}})
	for _, r := range runs {
		before := taken.Load()
		for _, c := range bench.Suite(1) {
			if err := r.run(c.Build()); err != nil {
				t.Fatalf("%s on %s: %v", r.name, c.Name, err)
			}
		}
		t.Logf("%s: %d self-rebuilds kept", r.name, taken.Load()-before)
	}
	total := taken.Load()
	if total == 0 {
		t.Fatal("no candidate took the short cut; the oracle is vacuous")
	}
	if n := refuted.Load(); n != 0 {
		t.Errorf("holds refuted %d of %d self-rebuilds", n, total)
	}
}
