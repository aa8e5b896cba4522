package core

import (
	"sync/atomic"

	"aigre/internal/aig"
	"aigre/internal/dedup"
	"aigre/internal/gpu"
	"aigre/internal/hashtable"
)

// Replacement asks the engine to substitute the cone's logic by a program
// over the cone's leaves (leaf i of the program is cone.Leaves[i]).
type Replacement struct {
	Cone *Cone
	Prog Program
}

// ApplyReplacements performs the paper's parallel replacement stage: the
// cones of all replacements are deleted and their programs inserted through
// the shared hash table, one op per cone per insertion pass, with no data
// race (the cones are disjoint by Theorem 1, so deletions cannot conflict,
// and concurrent creations are resolved by the lock-free table). It returns
// a fresh network with no structural duplicate and no dangling node.
func ApplyReplacements(d *gpu.Device, a *aig.AIG, reps []Replacement) *aig.AIG {
	work := a.Clone()

	// Phase 1: mark deleted nodes and boundary (cut) nodes of the replaced
	// cones. Boundary nodes can be leaves of several cones, so they are
	// marked with atomic stores.
	deleted := make([]bool, work.NumObjs())
	boundary := make([]uint32, work.NumObjs())
	d.Launch("replace/mark", len(reps), func(tid int) int64 {
		r := &reps[tid]
		for _, n := range r.Cone.Nodes {
			deleted[n] = true // cones are disjoint: one writer per node
		}
		for _, l := range r.Cone.Leaves {
			atomic.StoreUint32(&boundary[l], 1)
		}
		return int64(len(r.Cone.Nodes) + len(r.Cone.Leaves))
	})

	// Phase 2: allocate new-node slots (scan over program sizes).
	counts := make([]int32, len(reps))
	for i := range reps {
		counts[i] = int32(len(reps[i].Prog.Ops))
	}
	offsets, total := d.ExclusiveScan("replace/slot-scan", counts)
	firstNew := work.ExtendSlots(int(total))

	// Phase 3: initialize the hash table with the kept nodes and the cut
	// nodes of the replaced cones (Figure 1c). Its keys are at most the
	// network's slots, the new ones included since ExtendSlots.
	ht := hashtable.New(work.NumObjs())
	d.Launch("replace/ht-init", a.NumObjs(), func(tid int) int64 {
		id := int32(tid)
		if !work.IsAnd(id) || work.IsDeleted(id) {
			return 1
		}
		if deleted[id] && boundary[id] == 0 {
			return 1
		}
		ht.InsertUnique(aig.Key(work.Fanin0(id), work.Fanin1(id)), uint32(id))
		return 2
	})

	// Phase 4: insertion passes — one new node per cone per pass
	// (Figure 1d-1e), sharing-aware through the table. Per-cone result and
	// leaf-literal arrays are carved out of two flat backing allocations (the
	// op offsets from the slot scan; leaf offsets from a host prefix sum)
	// instead of one allocation per cone.
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
	maxOps := 0
	for i := range reps {
		if n := len(reps[i].Prog.Ops); n > maxOps {
			maxOps = n
		}
	}
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
			provisional := firstNew + offsets[tid] + int32(pass)
			results[tid][pass], _ = ht.ShareOrCreate(work, f0, f1, provisional)
			return 4
		})
	}

	// Phase 5: build the root map and chase alias chains (a new root that
	// structurally aliases another replaced root).
	rootMap := make([]aig.Lit, work.NumObjs())
	hasMap := make([]bool, work.NumObjs())
	d.Launch("replace/rootmap", len(reps), func(tid int) int64 {
		r := &reps[tid]
		newRoot := Resolve(r.Prog.Root, leafLits[tid], results[tid])
		if newRoot.Var() == r.Cone.Root && !newRoot.IsCompl() {
			return 1 // identity replacement
		}
		rootMap[r.Cone.Root] = newRoot
		hasMap[r.Cone.Root] = true
		return 1
	})
	chaseRootMap(rootMap, hasMap)

	// Phase 6: redirect every fanin and PO through the root map
	// (Figure 1f: "the old roots are replaced by the new roots").
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

	// Phase 7: merge the Figure 4 duplicates the redirect made, and drop
	// what they orphan with the old cones and the unused provisional slots
	// (Section III-F, whose compaction is the command's only one).
	out, _, _ := dedup.Merge(d, work)
	return out
}

// chaseRootMap resolves chains r -> lit(r') where r' is itself a replaced
// root, cutting cycles by dropping an entry (identity replacement).
func chaseRootMap(rootMap []aig.Lit, hasMap []bool) {
	for r := range rootMap {
		if !hasMap[r] {
			continue
		}
		cur := rootMap[r]
		steps := 0
		for hasMap[cur.Var()] && cur.Var() != int32(r) {
			cur = rootMap[cur.Var()].NotCond(cur.IsCompl())
			steps++
			if steps > len(rootMap) {
				break
			}
		}
		if cur.Var() == int32(r) || steps > len(rootMap) {
			// Alias cycle: keep this root as itself.
			hasMap[r] = false
			continue
		}
		rootMap[r] = cur
	}
}
