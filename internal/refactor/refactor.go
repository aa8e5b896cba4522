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
// parallel without data races through the concurrent hash table.
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

// Options controls both engines.
type Options struct {
	// MaxCut bounds the cut size (number of cone leaves). The paper uses 12
	// (11 for log2). Default 12.
	MaxCut int
	// ZeroGain accepts replacements that do not change the node count
	// (ABC's -z). The parallel engine always accepts zero gain, because its
	// gain is a lower bound (Section III-D); the flag only affects the
	// sequential engine.
	ZeroGain bool
	// SequentialReplacement runs the parallel engine's replacement stage as
	// a single host thread: the Table I ablation ("rf w/ seq. replace").
	SequentialReplacement bool
	// Cache memoizes resynthesis by cone structure (nil = the process-wide
	// rcache.Default). Programs are immutable once built, so sharing a cache
	// across passes, runs and concurrent jobs is safe; results are identical
	// with or without it.
	Cache *rcache.Cache
}

// normalized fills in defaults.
func (o Options) normalized() Options {
	if o.MaxCut == 0 {
		o.MaxCut = 12
	}
	if o.MaxCut < 2 {
		o.MaxCut = 2
	}
	if o.MaxCut > truth.MaxVars {
		o.MaxCut = truth.MaxVars
	}
	if o.Cache == nil {
		o.Cache = rcache.Default
	}
	return o
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
// optimized AIG. The input must be structurally sound (use Rehash/Compact
// after external loaders); the result is compacted and de-duplicated by the
// caller's post-processing (see package dedup).
func Parallel(d *gpu.Device, a *aig.AIG, opts Options) (*aig.AIG, Stats) {
	opts = opts.normalized()
	st := Stats{NodesBefore: a.NumAnds()}

	// Stage 1: collapse into disjoint FFCs (Section III-B a).
	fc := core.NewFFCCollapser(a, opts.MaxCut)
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
	progs := make([]core.Program, len(cones))
	accept := make([]bool, len(cones))
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
			progs[tid] = prog
			accept[tid] = true
		}
		return ops
	})
	for _, s := range slots {
		scratchPool.Put(s)
	}

	// Stage 3: parallel replacement (Section III-B b, Figures 1c-1f).
	var reps []core.Replacement
	for i, ok := range accept {
		if ok {
			reps = append(reps, core.Replacement{Cone: cones[i], Prog: progs[i]})
		}
	}
	st.ConesReplaced = len(reps)
	var out *aig.AIG
	if opts.SequentialReplacement {
		out = applySequentially(d, a, reps)
	} else {
		out = core.ApplyReplacements(d, a, reps)
	}
	st.NodesAfter = out.NumAnds()
	return out, st
}

// applySequentially is the Table I ablation: the resynthesized cones are
// inserted one at a time by the host through the incremental replacement
// machinery of [9] (build with structural hashing, revalidate, replace,
// cascade), instead of the paper's parallel replacement. Because refactoring
// cones are much larger than rewriting's 4-input cones, this sequential part
// is correspondingly more expensive — the effect Table I quantifies.
func applySequentially(d *gpu.Device, a *aig.AIG, reps []core.Replacement) *aig.AIG {
	return core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		var ops int64
		for _, r := range reps {
			ops += int64(2*len(r.Cone.Nodes) + len(r.Cone.Leaves) + 8)
			if work.IsDeleted(r.Cone.Root) || !work.IsAnd(r.Cone.Root) {
				continue
			}
			if slices.ContainsFunc(r.Cone.Leaves, work.IsDeleted) {
				continue
			}
			// Earlier replacements may have restructured the region: the leaves
			// must still form a cut of the root (which also guarantees no cycle
			// can arise from structural-hash reuse, since leaf-above-root and
			// root-above-leaf cannot hold simultaneously in a DAG).
			if !s.cs.ValidCut(work, r.Cone.Root, r.Cone.Leaves, 4*len(r.Cone.Nodes)+16) {
				continue
			}
			ops += int64(3 * len(r.Prog.Ops))
			replaceCone(work, s, r.Cone.Root, s.leafLitsOf(r.Cone.Leaves), r.Prog)
		}
		d.AddOverhead("refactor/seq-replace", ops)
		return nil
	})
}

// replaceCone builds prog over the leaf literals with structural hashing and
// substitutes it for root, unless resynthesis reproduced the node being
// replaced. It reports whether the network changed.
func replaceCone(work *aig.AIG, s *scratch, root int32, leafLits []aig.Lit, prog core.Program) bool {
	newRoot, ok := s.es.BuildProgramAvoiding(work, prog, leafLits, root)
	if !ok || newRoot.Var() == root {
		return false
	}
	work.ReplaceNode(root, newRoot)
	return true
}

// leafLitsOf returns the positive literals of leaves in the scratch's buffer.
func (s *scratch) leafLitsOf(leaves []int32) []aig.Lit {
	s.leafLits = s.leafLits[:0]
	for _, l := range leaves {
		s.leafLits = append(s.leafLits, aig.MakeLit(l, false))
	}
	return s.leafLits
}

// Sequential runs one pass of ABC-style refactoring (drf; drf -z when
// opts.ZeroGain). Replacements are applied immediately, so later cones are
// resynthesized against the already-improved network.
func Sequential(a *aig.AIG, opts Options) (*aig.AIG, Stats) {
	opts = opts.normalized()
	st := Stats{NodesBefore: a.NumAnds()}
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		rc := cut.NewReconv(work)
		return func(id int32) {
			leaves := rc.Cut(id, opts.MaxCut)
			if len(leaves) < 2 {
				return
			}
			st.ConesConsidered++
			mffc := len(s.es.MffcMembers(work, id, leaves))
			if mffc < 2 {
				return
			}
			prog, _ := resynthesize(work, aig.MakeLit(id, false), leaves, opts.Cache, s)
			leafLits := s.leafLitsOf(leaves)
			gain := mffc - s.es.DryRunCost(work, prog, leafLits)
			if gain < 0 || (gain == 0 && !opts.ZeroGain) {
				return
			}
			if replaceCone(work, s, id, leafLits, prog) {
				st.ConesReplaced++
			}
		}
	})
	st.NodesAfter = out.NumAnds()
	return out, st
}
