package core

import (
	"aigre/internal/aig"
	"aigre/internal/dedup"
	"aigre/internal/gpu"
)

// Replacement asks the engine to substitute the cone's logic by a program
// over the cone's leaves (leaf i of the program is cone.Leaves[i]).
type Replacement struct {
	Cone *Cone
	Prog Program
}

// ApplyReplacements performs the paper's parallel replacement stage: the
// programs of all replacements are written into fresh slots, one op per cone
// per insertion pass, the old roots are redirected to the new ones, and the
// Section III-F pass merges every structural duplicate and drops the old
// cones. There is no data race: the cones are disjoint by Theorem 1 and each
// owns its slots. Sharing a new node with an existing one is left to the
// merge, which keeps each class's member of lowest (level, id), so the result
// does not depend on the schedule. It returns a fresh network with no
// structural duplicate and no dangling node.
func ApplyReplacements(d *gpu.Device, a *aig.AIG, reps []Replacement) *aig.AIG {
	work := a.Clone()

	// Phase 1: allocate new-node slots (scan over program sizes).
	counts := make([]int32, len(reps))
	maxOps := 0
	for i := range reps {
		counts[i] = int32(len(reps[i].Prog.Ops))
		maxOps = max(maxOps, len(reps[i].Prog.Ops))
	}
	offsets, total := d.ExclusiveScan("replace/slot-scan", counts)
	firstNew := work.ExtendSlots(int(total))

	// Phase 2: insertion passes — one new node per cone per pass
	// (Figure 1d-1e). Per-cone result and leaf-literal arrays are carved out
	// of two flat backing allocations (the op offsets from the slot scan;
	// leaf offsets from a host prefix sum) instead of one allocation per cone.
	results := make([][]aig.Lit, len(reps))
	leafLits := make([][]aig.Lit, len(reps))
	leafOff := make([]int32, len(reps)+1)
	for i := range reps {
		leafOff[i+1] = leafOff[i] + int32(len(reps[i].Cone.Leaves))
	}
	resultsFlat := make([]aig.Lit, int(total))
	leafFlat := make([]aig.Lit, int(leafOff[len(reps)]))
	d.Launch("replace/prep", len(reps), func(tid int) int64 {
		r := &reps[tid]
		results[tid] = resultsFlat[offsets[tid] : int(offsets[tid])+len(r.Prog.Ops) : int(offsets[tid])+len(r.Prog.Ops)]
		lits := leafFlat[leafOff[tid]:leafOff[tid+1]:leafOff[tid+1]]
		for i, l := range r.Cone.Leaves {
			lits[i] = aig.MakeLit(l, false)
		}
		leafLits[tid] = lits
		return int64(len(lits))
	})
	for pass := 0; pass < maxOps; pass++ {
		d.Launch("replace/insert", len(reps), func(tid int) int64 {
			r := &reps[tid]
			if pass >= len(r.Prog.Ops) {
				return 1
			}
			op := r.Prog.Ops[pass]
			f0 := Resolve(op.A, leafLits[tid], results[tid])
			f1 := Resolve(op.B, leafLits[tid], results[tid])
			if lit, ok := aig.SimplifyAnd(f0, f1); ok {
				results[tid][pass] = lit
				return 2
			}
			slot := firstNew + offsets[tid] + int32(pass)
			work.SetFanins(slot, f0, f1)
			results[tid][pass] = aig.MakeLit(slot, false)
			return 3
		})
	}

	// Phase 3: build the root map and chase chains through new roots that
	// are leaves replaced by another cone.
	rootMap := make([]aig.Lit, work.NumObjs())
	hasMap := make([]bool, work.NumObjs())
	d.Launch("replace/rootmap", len(reps), func(tid int) int64 {
		r := &reps[tid]
		rootMap[r.Cone.Root] = Resolve(r.Prog.Root, leafLits[tid], results[tid])
		hasMap[r.Cone.Root] = true
		return 1
	})
	chaseRootMap(rootMap, hasMap)

	// Phase 4: redirect every fanin and PO through the root map
	// (Figure 1f: "the old roots are replaced by the new roots"), so that the
	// merge's levels order every new root before its readers.
	d.Launch("replace/redirect", work.NumObjs(), func(tid int) int64 {
		id := int32(tid)
		if !work.IsAnd(id) {
			return 1
		}
		f0, f1 := work.Fanin0(id), work.Fanin1(id)
		changed := false
		if hasMap[f0.Var()] {
			f0 = rootMap[f0.Var()].NotCond(f0.IsCompl())
			changed = true
		}
		if hasMap[f1.Var()] {
			f1 = rootMap[f1.Var()].NotCond(f1.IsCompl())
			changed = true
		}
		if changed {
			work.SetFanins(id, f0, f1)
		}
		return 2
	})
	for i, p := range work.POs() {
		if hasMap[p.Var()] {
			work.SetPO(i, rootMap[p.Var()].NotCond(p.IsCompl()))
		}
	}

	// Phase 5: merge every structural duplicate — of a new node with a kept
	// one, of two new nodes, and the Figure 4 pairs the redirect made — and
	// drop what they orphan with the old cones and the unused slots
	// (Section III-F, whose compaction is the command's only one).
	out, _, _ := dedup.Merge(d, work)
	return out
}

// chaseRootMap resolves chains r -> lit(r') where r' is itself a replaced
// root. A new root is a fresh node, a constant or a leaf of its cone, and a
// leaf lies strictly below the root, so every chain descends and ends.
func chaseRootMap(rootMap []aig.Lit, hasMap []bool) {
	for r := range rootMap {
		if !hasMap[r] {
			continue
		}
		cur := rootMap[r]
		for hasMap[cur.Var()] {
			cur = rootMap[cur.Var()].NotCond(cur.IsCompl())
		}
		rootMap[r] = cur
	}
}
