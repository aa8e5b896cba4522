// Package core implements the paper's primary contribution: the parallel
// resynthesis framework of Sections III and IV. It provides
//
//   - the level-wise collapsing driver that partitions an AIG into disjoint
//     cones from POs to PIs using frontier arrays (Section III-B),
//   - the fanout-free-cone (FFC) traversal with best-first expansion and
//     cut-size early stop (Section III-C, Theorem 1),
//   - the data-race-free parallel replacement engine built on the
//     GPU-parallel hash table, with lower-bound gain accounting
//     (Sections III-B(b), III-D, III-E), which runs the de-duplication and
//     dangling-node pass (Section III-F, package dedup) on its output,
//   - the host in-place editor and applier (EditInPlace, Apply) that
//     rewriting, resubstitution and [9]-style replacement go through.
//
// Refactoring, rewriting and resubstitution are clients of this package;
// balancing has its own reconstruction kernels and does not use it.
package core

import (
	"aigre/internal/aig"
	"aigre/internal/gpu"
)

// TraverseFunc identifies the cone rooted at root and returns the node ids
// at which the traversal stopped (the cut of the cone) plus an operation
// count for device-time accounting. It runs inside a kernel: it must only
// read shared state and write state owned by this root.
type TraverseFunc func(root int32) (cut []int32, ops int64)

// LevelWiseCollapse partitions the AIG from POs toward PIs. It maintains a
// frontier array initialized with the PO drivers; each level launches one
// kernel that runs traverse for every frontier root, then gathers the cut
// nodes of all cones into the next frontier, filtering PIs, duplicates, and
// nodes already processed as roots (Section III-B). It returns the roots
// grouped by level.
func LevelWiseCollapse(d *gpu.Device, a *aig.AIG, traverse TraverseFunc) [][]int32 {
	done := make([]bool, a.NumObjs())
	var frontier []int32
	for _, p := range a.POs() {
		if v := p.Var(); a.IsAnd(v) && !done[v] {
			done[v] = true
			frontier = append(frontier, v)
		}
	}
	frontier = d.SortUniqueInt32("collapse/frontier-sort", frontier)
	var batches [][]int32
	cuts := make([][]int32, 0)
	for len(frontier) > 0 {
		batches = append(batches, frontier)
		if cap(cuts) < len(frontier) {
			cuts = make([][]int32, len(frontier))
		}
		cuts = cuts[:len(frontier)]
		d.Launch("collapse/traverse", len(frontier), func(tid int) int64 {
			cut, ops := traverse(frontier[tid])
			cuts[tid] = cut
			return ops
		})
		// Gather cut nodes into the next frontier (scan + scatter on the
		// device; a flat append on the host).
		counts := make([]int32, len(frontier))
		for i, c := range cuts {
			counts[i] = int32(len(c))
		}
		offsets, total := d.ExclusiveScan("collapse/cut-scan", counts)
		gathered := make([]int32, total)
		d.Launch1("collapse/gather", len(frontier), func(tid int) {
			copy(gathered[offsets[tid]:], cuts[tid])
		})
		next := gathered[:0]
		for _, v := range gathered {
			if a.IsAnd(v) && !done[v] {
				next = append(next, v)
				// done is written only on the host between kernels, so this
				// also deduplicates within the gathered batch.
				done[v] = true
			}
		}
		frontier = d.SortUniqueInt32("collapse/frontier-sort", next)
	}
	return batches
}

// Cone is a fanout-free cone identified during collapsing.
type Cone struct {
	Root   int32
	Leaves []int32 // the associated cut, in discovery order
	Nodes  []int32 // interior nodes including the root
}

// FFCCollapser carves disjoint FFCs out of an AIG. Each traversal is a
// best-first search from the root toward the PIs that greedily expands the
// cut node increasing the cut size least, absorbs a node only when every one
// of its fanouts already lies inside the cone (the fanout-free condition),
// and early-stops at maxCut leaves. When the limit is never reached the
// resulting cone is the root's MFFC restricted to the already-carved
// partition (Section III-C).
type FFCCollapser struct {
	a      *aig.AIG
	refs   []int32 // global reference counts (AND fanouts + PO refs)
	maxCut int
}

// NewFFCCollapser prepares a collapser with the given cut-size limit.
func NewFFCCollapser(a *aig.AIG, maxCut int) *FFCCollapser {
	if maxCut < 2 {
		panic("core: maxCut must be at least 2")
	}
	return &FFCCollapser{a: a, refs: a.FanoutCounts(), maxCut: maxCut}
}

// Collapse partitions the AIG into disjoint FFCs and returns them grouped
// by frontier level. Every AND node reachable from a PO belongs to exactly
// one cone (Theorem 1 guarantees disjointness; the tests check it).
func (fc *FFCCollapser) Collapse(d *gpu.Device) [][]Cone {
	// Each kernel thread writes only its own root's slot: race-free.
	coneAt := make([]*Cone, fc.a.NumObjs())
	roots := LevelWiseCollapse(d, fc.a, func(root int32) ([]int32, int64) {
		cone, ops := fc.traverse(root)
		coneAt[root] = &cone
		return cone.Leaves, ops
	})
	batches := make([][]Cone, 0, len(roots))
	for _, rs := range roots {
		batch := make([]Cone, 0, len(rs))
		for _, r := range rs {
			batch = append(batch, *coneAt[r])
		}
		batches = append(batches, batch)
	}
	return batches
}

// traverse carves the FFC of root.
func (fc *FFCCollapser) traverse(root int32) (Cone, int64) {
	a := fc.a
	cone := Cone{Root: root, Nodes: []int32{root}}
	inCone := map[int32]bool{root: true}
	// coneRefs[v] = number of edges from cone nodes into v (for v outside
	// the cone). v is absorbable iff coneRefs[v] == refs[v]: all fanouts of
	// v lie inside the cone.
	coneRefs := map[int32]int32{}
	inCut := map[int32]bool{}
	var cut []int32
	ops := int64(1)

	addFanins := func(n int32) {
		for _, f := range [2]aig.Lit{a.Fanin0(n), a.Fanin1(n)} {
			v := f.Var()
			if inCone[v] {
				continue
			}
			coneRefs[v]++
			if !inCut[v] && !a.IsConst(v) {
				inCut[v] = true
				cut = append(cut, v)
			}
		}
	}
	addFanins(root)

	for {
		// Best-first: pick the absorbable cut node whose expansion grows
		// the cut least.
		best := int32(-1)
		bestDelta := 3
		for _, c := range cut {
			if !inCut[c] || !a.IsAnd(c) {
				continue
			}
			ops++
			if coneRefs[c] != fc.refs[c] {
				continue // external fanouts: traversal stops here
			}
			delta := -1
			for _, f := range [2]aig.Lit{a.Fanin0(c), a.Fanin1(c)} {
				v := f.Var()
				if !inCone[v] && !inCut[v] && !a.IsConst(v) {
					delta++
				}
			}
			if delta < bestDelta {
				bestDelta = delta
				best = c
				if delta == -1 {
					break
				}
			}
		}
		cutSize := len(cut)
		if best < 0 || cutSize+bestDelta > fc.maxCut {
			break // nothing absorbable, or early stop at the cut limit
		}
		// Absorb best into the cone.
		inCut[best] = false
		inCone[best] = true
		delete(coneRefs, best)
		cone.Nodes = append(cone.Nodes, best)
		addFanins(best)
		ops += 2
	}
	// Compact the cut list (absorbed entries were unmarked).
	final := cut[:0]
	for _, c := range cut {
		if inCut[c] {
			final = append(final, c)
		}
	}
	cone.Leaves = final
	return cone, ops
}
