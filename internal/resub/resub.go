// Package resub implements resubstitution: re-expressing a node as a small
// function of existing divisor nodes, deleting its MFFC. The paper names
// parallel resubstitution as future work ("parallelizing more logic
// optimization algorithms such as resubstitution"); this package provides
// both the ABC-style sequential algorithm and a parallel version following
// the evaluation/replacement split the paper uses for rewriting: divisor
// search for all nodes runs as a device kernel, replacement is applied
// sequentially with on-the-fly revalidation.
//
// Supported substitutions: 0-resub (node equals an existing divisor up to
// complement) and 1-resub (node equals the AND/OR of two divisors up to
// complements). Divisors are gathered from the cut closure: starting from
// the cut leaves, any node both of whose fanins already lie in the closure
// is a divisor. This construction cannot reach the transitive fanout of the
// target (the target would have to be in a divisor's fanin cone, impossible
// in a DAG when the leaves lie in the target's fanin cone), so substitution
// can never create a cycle.
package resub

import (
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

// candidate describes one substitution found by evaluation.
type candidate struct {
	leaves []int32
	// kind 0: root := d0 (with complement); kind 1: root := d0 AND d1
	// (with operand/output complements encoding OR by De Morgan).
	kind   int
	d0, d1 aig.Lit // divisor literals (complements included)
	outNeg bool    // complement the result
	gain   int
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
func evaluateNode(a *aig.AIG, s *scratch, fanouts func(int32) []int32, id int32) (candidate, bool, int64) {
	leaves := s.rc.Cut(id, maxCut)
	if len(leaves) < 2 {
		return candidate{}, false, 1
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
			return candidate{leaves: leaves, kind: 0, d0: aig.MakeLit(d, false), gain: mffc}, true, ops
		}
		if ds.truths[i].Equal(notN) {
			return candidate{leaves: leaves, kind: 0, d0: aig.MakeLit(d, true), gain: mffc}, true, ops
		}
	}
	// 1-resub: target = ±(±di & ±dj); needs |MFFC| >= 2 for positive gain.
	if mffc < 2 {
		return candidate{}, false, ops
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
					return candidate{
						leaves: leaves,
						kind:   1,
						d0:     aig.MakeLit(ds.ids[i], phase&1 != 0),
						d1:     aig.MakeLit(ds.ids[j], phase&2 != 0),
						outNeg: and.Equal(notN),
						gain:   mffc - 1,
					}, true, ops
				}
			}
		}
	}
	return candidate{}, false, ops
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

// apply performs the substitution in place, revalidating against the
// current graph (leaves must still form a cut, the divisors must be live,
// and the identity must still hold).
func apply(work *aig.AIG, s *scratch, id int32, cand candidate, revalidate bool) bool {
	if work.IsDeleted(id) {
		return false
	}
	for _, l := range cand.leaves {
		if work.IsDeleted(l) {
			return false
		}
	}
	divs := []aig.Lit{cand.d0}
	if cand.kind == 1 {
		divs = append(divs, cand.d1)
	}
	for _, d := range divs {
		if work.IsDeleted(d.Var()) {
			return false
		}
	}
	if revalidate {
		ttN, ok := coneTruthSafe(work, s, aig.MakeLit(id, false), cand.leaves)
		if !ok {
			return false
		}
		ttN = ttN.Clone() // the divisor truths below reuse the scratch
		// Earlier substitutions may have rerouted a divisor's cone through
		// the target itself; substituting would then create a cycle.
		for _, dl := range divs {
			if coneContains(work, dl.Var(), cand.leaves, id) {
				return false
			}
		}
		expr, ok := coneTruthSafe(work, s, cand.d0, cand.leaves)
		if !ok {
			return false
		}
		if cand.kind == 1 {
			t0 := expr.Clone()
			t1, ok := coneTruthSafe(work, s, cand.d1, cand.leaves)
			if !ok {
				return false
			}
			expr = t0.And(t0, t1)
		}
		if cand.outNeg {
			expr = truth.New(ttN.NVars).Not(expr)
		}
		if !expr.Equal(ttN) {
			return false
		}
	}
	var newLit aig.Lit
	if cand.kind == 0 {
		newLit = cand.d0
	} else {
		newLit = work.NewAnd(cand.d0, cand.d1)
	}
	newLit = newLit.NotCond(cand.outNeg)
	if newLit.Var() == id {
		return false
	}
	work.ReplaceNode(id, newLit)
	return true
}

// coneContains reports whether the cone of root bounded by leaves contains
// the banned node.
func coneContains(a *aig.AIG, root int32, leaves []int32, banned int32) bool {
	isLeaf := make(map[int32]bool, len(leaves))
	for _, l := range leaves {
		isLeaf[l] = true
	}
	seen := map[int32]bool{}
	stack := []int32{root}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if cur == banned {
			return true
		}
		if isLeaf[cur] || seen[cur] || !a.IsAnd(cur) {
			continue
		}
		seen[cur] = true
		if len(seen) > 4096 {
			return true // runaway region: treat as unsafe
		}
		stack = append(stack, a.Fanin0(cur).Var(), a.Fanin1(cur).Var())
	}
	return false
}

// coneTruthSafe evaluates a cone function, returning ok=false when the
// leaves no longer bound the cone.
func coneTruthSafe(a *aig.AIG, s *scratch, rootLit aig.Lit, leaves []int32) (t truth.TT, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	return s.cs.ConeTruth(a, rootLit, leaves), true
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
			if ok && apply(work, s, id, cand, false) {
				st.count(cand)
			}
		}
	})
	st.NodesAfter = out.NumAnds()
	return out, st
}

// count files an applied substitution under its kind.
func (st *Stats) count(cand candidate) {
	if cand.kind == 0 {
		st.ZeroResubs++
	} else {
		st.OneResubs++
	}
}

// Parallel runs resubstitution with the paper's evaluation/replacement
// split: one device thread evaluates each node on the immutable input
// graph; the host applies accepted substitutions sequentially with
// revalidation. (A fully parallel replacement as in Section III would
// require substitutions whose divisor regions are disjoint; the paper
// leaves this as future work, and this engine is the natural [9]-style
// baseline for it.)
func Parallel(d *gpu.Device, a *aig.AIG) (*aig.AIG, Stats) {
	st := Stats{NodesBefore: a.NumAnds()}
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		nodes := make([]int32, 0, work.NumAnds())
		work.ForEachAnd(func(id int32) { nodes = append(nodes, id) })
		cands := make([]candidate, len(nodes))
		oks := make([]bool, len(nodes))
		// One scratch per worker slot; the cut computer is bound to work, so
		// the scratches live for this pass, and slot 0's serves the host step.
		slots := make([]*scratch, d.Workers())
		for i := range slots {
			slots[i] = &scratch{rc: cut.NewReconv(work)}
		}
		d.LaunchSlots("resub/evaluate", len(nodes), func(slot, tid int) int64 {
			cand, ok, ops := evaluateNode(work, slots[slot], work.Fanouts, nodes[tid])
			cands[tid] = cand
			oks[tid] = ok
			return ops
		})
		st.NodesConsidered = len(nodes)

		s := slots[0]
		var seqOps int64
		for i, id := range nodes {
			seqOps++
			if !oks[i] {
				continue
			}
			seqOps += int64(8 + 4*len(cands[i].leaves))
			if apply(work, s, id, cands[i], true) {
				st.count(cands[i])
			}
		}
		d.AddOverhead("resub/seq-replace", seqOps)
		return nil
	})
	st.NodesAfter = out.NumAnds()
	return out, st
}
