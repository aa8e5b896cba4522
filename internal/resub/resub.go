// Package resub implements resubstitution: re-expressing a node as a small
// function of existing divisor nodes, deleting its MFFC. The paper names
// parallel resubstitution as future work; Parallel here is the [9]-style
// baseline: divisor search for all nodes runs as a device kernel, and the
// host applies the substitutions in id order through core.Apply, which
// revalidates each against the edits before it.
//
// Supported substitutions, each a core.Candidate over divisor literals:
// 0-resub (node equals an existing divisor up to complement) and 1-resub
// (node equals the AND/OR of two divisors up to complements). Divisors are
// gathered from the cut closure: starting from the cut leaves, any node both
// of whose fanins already lie in the closure is a divisor. On the graph it
// was evaluated on, this construction cannot reach the transitive fanout of
// the target (the target would have to be in a divisor's fanin cone,
// impossible in a DAG when the leaves lie in the target's fanin cone), so the
// sequential pass never creates a cycle. An earlier replacement can reroute a
// divisor's cone through the target; core.Apply's revalidation, whose divisor
// walk avoids the target, turns that candidate down.
package resub

import (
	"slices"

	"aigre/internal/aig"
	"aigre/internal/core"
	"aigre/internal/cut"
	"aigre/internal/gpu"
	"aigre/internal/truth"
)

// maxCut bounds the cut size (ABC's rs uses K=8, within truth.MaxVars). A
// variable only so that the function-preservation fuzz test can vary it.
var maxCut = 8

// maxDivisors bounds the divisor set per node (ABC uses 150).
const maxDivisors = 64

// Stats reports one resubstitution pass.
type Stats struct {
	NodesConsidered int
	ZeroResubs      int // node replaced by an existing divisor
	OneResubs       int // node replaced by a two-divisor AND/OR
	NodesBefore     int
	NodesAfter      int
}

// oneAnd is the program of every 1-resub: the AND of its two inputs.
var oneAnd = []core.Op{{A: core.LeafRef(0, false), B: core.LeafRef(1, false)}}

// substitution is the candidate replacing id by its one input (0-resub) or
// by the AND of its two (1-resub), complemented when outNeg. The divisor
// literals carry their own complements.
func substitution(id int32, leaves []int32, outNeg bool, ins ...aig.Lit) core.Candidate {
	p := core.Program{Root: core.LeafRef(0, outNeg)}
	if len(ins) == 2 {
		p = core.Program{Ops: oneAnd, Root: core.OpRef(0, outNeg)}
	}
	return core.Candidate{Root: id, Leaves: leaves, Inputs: ins, Prog: p, ZeroGain: true}
}

// scratch is one worker's reusable evaluation memory: the cut computer and
// the stamped cone-truth and MFFC arrays rewriting and refactoring use.
type scratch struct {
	rc *cut.Reconv
	cs cut.Scratch
	es core.EvalScratch
}

// divisorSet is the cut closure with truth tables over the cut leaves.
type divisorSet struct {
	ids    []int32
	truths []truth.TT
}

// collectDivisors builds the closure of nodes computable from the leaves:
// every node whose two fanins are already in the closure. fanouts is a
// fanout index accessor (node -> fanout node ids). Nodes of the target's
// MFFC (the set mffc recorded last; the substitution deletes them) are not
// offered as divisors, but still belong to the closure so truths above them
// resolve — with the crucial exception of the target itself: admitting it would let
// the closure climb into the target's transitive fanout and offer divisors
// whose substitution creates a cycle. Blocking the target keeps the
// invariant "no closure member contains the target in its fanin cone" by
// induction from the leaves.
func collectDivisors(a *aig.AIG, target int32, leaves []int32, fanouts func(int32) []int32, mffc *core.EvalScratch, maxDiv int) divisorSet {
	n := len(leaves)
	inSet := make(map[int32]truth.TT, 2*maxDiv)
	var ds divisorSet
	queue := make([]int32, 0, 2*maxDiv)
	for i, l := range leaves {
		tt := truth.Var(n, i)
		inSet[l] = tt
		ds.ids = append(ds.ids, l)
		ds.truths = append(ds.truths, tt)
		queue = append(queue, l)
	}
	for len(queue) > 0 && len(ds.ids) < maxDiv {
		s := queue[0]
		queue = queue[1:]
		for _, f := range fanouts(s) {
			if f == target {
				continue // never climb through the target (see doc comment)
			}
			if _, ok := inSet[f]; ok || !a.IsAnd(f) || a.IsDeleted(f) {
				continue
			}
			f0, f1 := a.Fanin0(f), a.Fanin1(f)
			t0, ok0 := inSet[f0.Var()]
			t1, ok1 := inSet[f1.Var()]
			if !ok0 || !ok1 {
				continue
			}
			if f0.IsCompl() {
				t0 = truth.New(n).Not(t0)
			}
			if f1.IsCompl() {
				t1 = truth.New(n).Not(t1)
			}
			tt := truth.New(n).And(t0, t1)
			inSet[f] = tt
			queue = append(queue, f)
			if !mffc.InMffc(f) {
				ds.ids = append(ds.ids, f)
				ds.truths = append(ds.truths, tt)
				if len(ds.ids) >= maxDiv {
					break
				}
			}
		}
	}
	return ds
}

// evaluateNode searches for the best substitution of node id. fanouts is a
// static fanout index of the current graph.
func evaluateNode(a *aig.AIG, s *scratch, fanouts func(int32) []int32, id int32) (core.Candidate, bool, int64) {
	leaves := s.rc.Cut(id, maxCut)
	if len(leaves) < 2 {
		return core.Candidate{}, false, 1
	}
	leaves = append([]int32(nil), leaves...) // rc reuses its buffer
	mffc := len(s.es.MffcMembers(a, id, leaves))
	ttN := s.cs.ConeTruth(a, aig.MakeLit(id, false), leaves) // valid until the next s.cs call
	ds := collectDivisors(a, id, leaves, fanouts, &s.es, maxDivisors)
	ops := int64(len(ds.ids)) * int64(len(ttN.Words)+2)

	notN := truth.New(ttN.NVars).Not(ttN)
	// 0-resub: any divisor equal to the target (gain = |MFFC|, always > 0).
	for i, d := range ds.ids {
		if d == id {
			continue
		}
		if ds.truths[i].Equal(ttN) {
			return substitution(id, leaves, false, aig.MakeLit(d, false)), true, ops
		}
		if ds.truths[i].Equal(notN) {
			return substitution(id, leaves, false, aig.MakeLit(d, true)), true, ops
		}
	}
	// 1-resub: target = ±(±di & ±dj); needs |MFFC| >= 2 for positive gain.
	if mffc < 2 {
		return core.Candidate{}, false, ops
	}
	n := ttN.NVars
	// Support-mask prefilter: complementation preserves support and
	// supp(x AND y) is contained in supp(x) OR supp(y), so a divisor pair
	// whose combined support does not cover the target's support can never
	// match in any phase. The masks are a host-side shortcut only — the
	// modeled device ops are charged exactly as without the filter.
	suppBuf := make([]int, 0, n)
	targetMask := supportMask(ttN, &suppBuf)
	divMask := make([]uint32, len(ds.truths))
	for i := range ds.truths {
		divMask[i] = supportMask(ds.truths[i], &suppBuf)
	}
	for i := 0; i < len(ds.ids); i++ {
		if ds.ids[i] == id {
			continue
		}
		for j := i + 1; j < len(ds.ids); j++ {
			if ds.ids[j] == id {
				continue
			}
			ops += 4
			if targetMask&^(divMask[i]|divMask[j]) != 0 {
				continue
			}
			for phase := 0; phase < 4; phase++ {
				ti := ds.truths[i]
				tj := ds.truths[j]
				if phase&1 != 0 {
					ti = truth.New(n).Not(ti)
				}
				and := andOf(n, ti, tj, phase&2 != 0)
				if and.Equal(ttN) || and.Equal(notN) {
					return substitution(id, leaves, and.Equal(notN),
						aig.MakeLit(ds.ids[i], phase&1 != 0), aig.MakeLit(ds.ids[j], phase&2 != 0)), true, ops
				}
			}
		}
	}
	return core.Candidate{}, false, ops
}

// supportMask folds a table's support (via the allocation-free SupportInto)
// into a variable bitmask.
func supportMask(t truth.TT, buf *[]int) uint32 {
	*buf = t.SupportInto(*buf)
	m := uint32(0)
	for _, v := range *buf {
		m |= 1 << uint(v)
	}
	return m
}

func andOf(n int, ti, tj truth.TT, negJ bool) truth.TT {
	out := truth.New(n)
	if negJ {
		return out.AndNot(ti, tj)
	}
	return out.And(ti, tj)
}

// Sequential runs one ABC-style resubstitution pass (rs): nodes are visited
// in topological order and substitutions applied immediately.
func Sequential(a *aig.AIG) (*aig.AIG, Stats) {
	st := Stats{NodesBefore: a.NumAnds()}
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		s := &scratch{rc: cut.NewReconv(work)}
		return func(id int32) {
			st.NodesConsidered++
			// The managed mode keeps live fanout lists; use them directly so
			// evaluation always sees the current graph.
			cand, ok, _ := evaluateNode(work, s, work.Fanouts, id)
			if ok && s.es.Apply(work, &s.cs, &cand, false) == core.Replaced {
				st.count(&cand)
			}
		}
	})
	st.NodesAfter = out.NumAnds()
	return out, st
}

// count files an applied substitution under its kind.
func (st *Stats) count(cand *core.Candidate) {
	if len(cand.Prog.Ops) == 0 {
		st.ZeroResubs++
	} else {
		st.OneResubs++
	}
}

// Candidates returns the substitutions found on work by Parallel's
// evaluation kernel, one device thread per AND node, in id order, for a
// caller that applies them through core.Apply with revalidation, in any
// order. work must be EditInPlace's kind of copy.
func Candidates(d *gpu.Device, work *aig.AIG) []core.Candidate {
	nodes := make([]int32, 0, work.NumAnds())
	work.ForEachAnd(func(id int32) { nodes = append(nodes, id) })
	cands := make([]core.Candidate, len(nodes))
	// One scratch per worker slot; the cut computer is bound to work.
	slots := make([]*scratch, d.Workers())
	for i := range slots {
		slots[i] = &scratch{rc: cut.NewReconv(work)}
	}
	d.LaunchSlots("resub/evaluate", len(nodes), func(slot, tid int) int64 {
		cand, ok, ops := evaluateNode(work, slots[slot], work.Fanouts, nodes[tid])
		if ok {
			cands[tid] = cand
		}
		return ops
	})
	return slices.DeleteFunc(cands, func(c core.Candidate) bool { return c.Root == 0 })
}

// Parallel runs resubstitution with the paper's evaluation/replacement
// split: one device thread evaluates each node on the immutable input
// graph; the host applies the substitutions in id order, each revalidated
// against the edits before it by core.Apply ([9]'s loop). The paper leaves a
// parallel replacement of substitutions as future work.
func Parallel(d *gpu.Device, a *aig.AIG) (*aig.AIG, Stats) {
	st := Stats{NodesBefore: a.NumAnds()}
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		st.NodesConsidered = work.NumAnds()
		seqOps := int64(st.NodesConsidered)
		var s scratch
		for _, c := range Candidates(d, work) {
			seqOps += int64(8 + 4*len(c.Leaves))
			if s.es.Apply(work, &s.cs, &c, true) == core.Replaced {
				st.count(&c)
			}
		}
		d.AddOverhead("resub/seq-replace", seqOps)
		return nil
	})
	st.NodesAfter = out.NumAnds()
	return out, st
}
