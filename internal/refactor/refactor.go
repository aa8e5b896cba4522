// Package refactor implements AIG refactoring: resynthesis of large cone
// functions through ISOP computation and algebraic factoring.
//
// Two engines are provided. Sequential is the ABC-style baseline (drf): it
// visits nodes in topological order, computes a reconvergence-driven cut,
// resynthesizes the cone function, and replaces the cone in place when the
// DAG-aware gain is non-negative — later nodes benefit from earlier
// replacements. Parallel is the paper's GPU algorithm (Section III): the AIG
// is partitioned into disjoint FFCs by level-wise collapsing, all cones are
// resynthesized concurrently, and the replacement itself is performed in
// parallel without data races, each cone writing its own slots, before the
// de-duplication pass shares the new nodes with the existing ones.
package refactor

import (
	"slices"
	"sync"

	"aigre/internal/aig"
	"aigre/internal/core"
	"aigre/internal/cut"
	"aigre/internal/factor"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
	"aigre/internal/truth"
)

// maxCut bounds the cut size (number of cone leaves): the paper's 12 (it
// uses 11 for log2), within truth.MaxVars. A variable only so that the
// function-preservation fuzz test can vary it.
var maxCut = 12

// Options controls both engines.
type Options struct {
	// ZeroGain accepts replacements that do not change the node count
	// (ABC's -z). The parallel engine always accepts zero gain, because its
	// gain is a lower bound (Section III-D); the flag only affects the
	// sequential engine.
	ZeroGain bool
	// Cache memoizes resynthesis by cone structure (nil: the process-wide
	// default). Programs are immutable once built, so sharing a cache across
	// passes, runs and concurrent jobs is safe; results are identical with
	// or without it.
	Cache *rcache.Cache
}

// Stats reports one refactoring pass.
type Stats struct {
	ConesConsidered int
	ConesReplaced   int
	NodesBefore     int
	NodesAfter      int
}

// scratch bundles one worker's reusable cone-evaluation memory.
type scratch struct {
	cs       cut.Scratch
	es       core.EvalScratch
	leafLits []aig.Lit
	supp     []int
	key      []byte
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// resynthesize computes a factored-form program for the function of rootLit
// over leaves, together with an operation estimate for device accounting.
// Results are memoized in c keyed by the exact structure of the cone, so a
// repeated cone — ubiquitous in arithmetic circuits — factors once, and a
// hit skips even its truth table. A cone too large to encode bypasses c.
func resynthesize(a *aig.AIG, rootLit aig.Lit, leaves []int32, c *rcache.Cache, s *scratch) (core.Program, int64) {
	// Truth-table computation over the cone: roughly 4 nodes per leaf, one
	// word-vector AND each.
	coneOps := int64(4*(len(leaves)+1)) * int64(truth.WordCount(len(leaves)))
	key := s.cs.ConeKey(a, rootLit, leaves, s.key[:0])
	if key != nil {
		s.key = key
		if e, ok := c.LookupKey(key); ok {
			// The device estimate still charges the full resynthesis: the
			// paper's GPU threads do not share a factoring cache; the
			// host-side cache only speeds up this reproduction's wall-clock.
			return e.Prog, coneOps + e.Ops
		}
	}
	prog, ops := synthesize(s.cs.KeyedTruth(a, rootLit, leaves), s)
	if key != nil {
		c.StoreKey(key, rcache.Entry{Prog: prog, Ops: ops})
	}
	return prog, coneOps + ops
}

// synthesize runs ISOP and factoring on the cone function tt and returns
// the linearized program with its operation estimate.
func synthesize(tt truth.TT, s *scratch) (core.Program, int64) {
	// Degenerate cone functions shortcut ISOP+factoring entirely; the
	// programs are exactly what the full path would linearize.
	s.supp = tt.SupportInto(s.supp)
	if len(s.supp) == 0 {
		return core.Program{Root: core.ConstRef(tt.Bit(0))}, 1
	}
	if len(s.supp) == 1 {
		// f depends on one variable v: f = v or NOT v, decided by the
		// cofactor at v=0 (minterm 0 has every variable at 0).
		return core.Program{Root: core.LeafRef(s.supp[0], tt.Bit(0))}, 1
	}
	sop, compl, isopOps := truth.MinPhaseISOPCount(tt)
	tree := factor.Factor(sop)
	prog := core.Linearize(tree, compl)
	return prog, isopOps + int64(len(sop.Cubes)*len(sop.Cubes)) + int64(len(prog.Ops))
}

// Parallel runs one pass of the paper's GPU refactoring and returns the
// optimized AIG. The input is Clean (aig.(*AIG).Clean), as flow.Run hands
// every command its input, and so is the result: the parallel replacement
// (core.ApplyReplacements) ends with the Section III-F pass.
func Parallel(d *gpu.Device, a *aig.AIG, opts Options) (*aig.AIG, Stats) {
	reps, st := resynthesizeCones(d, a, opts)
	// Stage 3: parallel replacement (Section III-B b, Figures 1c-1f).
	out := core.ApplyReplacements(d, a, reps)
	st.NodesAfter = out.NumAnds()
	return out, st
}

// resynthesizeCones is the front of Parallel and of the Table I ablation:
// the accepted replacements of a, in collapse order.
func resynthesizeCones(d *gpu.Device, a *aig.AIG, opts Options) ([]core.Replacement, Stats) {
	st := Stats{NodesBefore: a.NumAnds()}

	// Stage 1: collapse into disjoint FFCs (Section III-B a).
	fc := core.NewFFCCollapser(a, maxCut)
	batches := fc.Collapse(d)
	cones := make([]*core.Cone, 0, 1024)
	for bi := range batches {
		for ci := range batches[bi] {
			cones = append(cones, &batches[bi][ci])
		}
	}
	st.ConesConsidered = len(cones)

	// Stage 2: resynthesize all cones in parallel and evaluate gains
	// (Section III-B b, III-D). gain = deleted nodes - new cone size; the
	// logic sharing among new cones is omitted, making it a lower bound, so
	// zero-gain cones are accepted.
	reps := make([]core.Replacement, len(cones))
	slots := make([]*scratch, d.Workers()) // one per worker slot for the launch
	for i := range slots {
		slots[i] = scratchPool.Get().(*scratch)
	}
	d.LaunchSlots("refactor/resynth", len(cones), func(slot, tid int) int64 {
		cone := cones[tid]
		if len(cone.Nodes) < 2 {
			return 1 // nothing to gain from a single-node cone
		}
		prog, ops := resynthesize(a, aig.MakeLit(cone.Root, false), cone.Leaves, opts.Cache, slots[slot])
		gain := len(cone.Nodes) - prog.NumAnds()
		if gain >= 0 {
			reps[tid] = core.Replacement{Cone: cone, Prog: prog}
		}
		return ops
	})
	for _, s := range slots {
		scratchPool.Put(s)
	}
	reps = slices.DeleteFunc(reps, func(r core.Replacement) bool { return r.Cone == nil })
	st.ConesReplaced = len(reps)
	return reps, st
}

// ParallelSeqReplace is the Table I ablation ("rf w/ seq. replace"):
// Parallel's collapse and resynthesis, after which the host inserts the
// cones one at a time in collapse order through core.Apply with
// revalidation, [9]'s replacement step, instead of the paper's parallel
// replacement. Refactoring cones are much larger than rewriting's 4-input
// ones, so this sequential part costs correspondingly more: the effect
// Table I quantifies. Stats.ConesReplaced counts the accepted cones, as in
// Parallel.
func ParallelSeqReplace(d *gpu.Device, a *aig.AIG, opts Options) (*aig.AIG, Stats) {
	var st Stats
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		var reps []core.Replacement
		reps, st = resynthesizeCones(d, work, opts)
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		var ops int64
		for _, r := range reps {
			ops += int64(2*len(r.Cone.Nodes) + len(r.Cone.Leaves) + 8)
			c := s.candidate(r.Cone.Root, r.Cone.Leaves, r.Prog, true)
			if s.es.Apply(work, &s.cs, &c, true) != core.Stale {
				ops += int64(3 * len(r.Prog.Ops))
			}
		}
		d.AddOverhead("refactor/seq-replace", ops)
		return nil
	})
	st.NodesAfter = out.NumAnds()
	return out, st
}

// Candidates returns the replacements ParallelSeqReplace applies on work, in
// its order, for a caller that applies them through core.Apply with
// revalidation, in any order. work must be EditInPlace's kind of copy.
func Candidates(d *gpu.Device, work *aig.AIG, opts Options) []core.Candidate {
	reps, _ := resynthesizeCones(d, work, opts)
	cands := make([]core.Candidate, len(reps))
	var s scratch
	for i, r := range reps {
		cands[i] = s.candidate(r.Cone.Root, r.Cone.Leaves, r.Prog, true)
		cands[i].Inputs = slices.Clone(cands[i].Inputs)
	}
	return cands
}

// candidate returns prog replacing root over leaves as core.Apply takes it;
// the inputs are the leaves' positive literals, in the scratch's buffer. The
// parallel engine always accepts zero gain, its gain being a lower bound.
func (s *scratch) candidate(root int32, leaves []int32, prog core.Program, zeroGain bool) core.Candidate {
	s.leafLits = s.leafLits[:0]
	for _, l := range leaves {
		s.leafLits = append(s.leafLits, aig.MakeLit(l, false))
	}
	return core.Candidate{Root: root, Leaves: leaves, Inputs: s.leafLits, Prog: prog, ZeroGain: zeroGain}
}

// Sequential runs one pass of ABC-style refactoring (drf; drf -z when
// opts.ZeroGain). Replacements are applied immediately, so later cones are
// resynthesized against the already-improved network.
func Sequential(a *aig.AIG, opts Options) (*aig.AIG, Stats) {
	st := Stats{NodesBefore: a.NumAnds()}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	need := core.LeastGain(opts.ZeroGain)
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		rc := cut.NewReconv(work)
		return func(id int32) {
			leaves := rc.Cut(id, maxCut)
			if len(leaves) < 2 {
				return
			}
			st.ConesConsidered++
			mffc := len(s.es.MffcMembers(work, id, leaves))
			if mffc < 2 {
				return
			}
			prog, _ := resynthesize(work, aig.MakeLit(id, false), leaves, opts.Cache, s)
			c := s.candidate(id, leaves, prog, opts.ZeroGain)
			if mffc-s.es.DryRunCost(work, prog, c.Inputs, mffc-need) < need {
				return
			}
			if s.es.Apply(work, &s.cs, &c, false) == core.Replaced {
				st.ConesReplaced++
			}
		}
	})
	st.NodesAfter = out.NumAnds()
	return out, st
}
