package partition

import (
	"context"
	"fmt"

	"aigre/internal/aig"
	"aigre/internal/sched"
)

// part is one partition of the base network, described in base node ids.
// Every AND node a PO reaches is a member of exactly one partition, in both
// modes.
type part struct {
	index int
	// inputs are the boundary driver nodes feeding the partition, in the
	// order the extracted cone's PIs are laid out: PIs and AND nodes owned by
	// lower-indexed partitions.
	inputs []int32
	// members are the partition's AND nodes in topological order.
	members []int32
	// outputs are the members whose functions the partition exports through
	// the stitcher's boundary map: those read by higher partitions, and those
	// driving a PO that poIdx does not list.
	outputs []int32
	// poIdx are the original PO indices whose root the partition was first
	// to claim (cones mode; empty in levels mode, where every PO resolves
	// through the boundary map).
	poIdx []int
	// levelLo/levelHi is the level range (levels mode).
	levelLo, levelHi int
}

// buildCones clusters primary outputs greedily into size-bounded partitions
// that own every node once: POs are taken in order, the part of a PO's fanin
// cone that no partition owns yet is added to the current cluster, and the
// cluster is closed first when that would push it past target (an oversize
// single cone still becomes one partition). A node belongs to the first
// cluster whose PO cone reaches it; a later cluster reads it as an input, and
// a PO whose root is already owned resolves through the boundary map. A
// single-fanout node is reachable only through its fanout and so shares its
// owner: every partition is a union of whole fanout-free cones, cut at
// multi-fanout nodes — the cover the paper's Theorem 1 proves disjoint.
func buildCones(a *aig.AIG, target int) []*part {
	owner := make([]int32, a.NumObjs()) // AND node -> owning part index + 1 (0 = unowned)
	isOut := make([]bool, a.NumObjs())
	var parts []*part
	var stack, cone []int32
	cur := &part{}
	closeCluster := func() {
		parts = append(parts, cur)
		cur = &part{index: len(parts)}
	}
	unowned := func(id int32) bool { return a.IsAnd(id) && owner[id] == 0 }

	for i := 0; i < a.NumPOs(); i++ {
		root := a.PO(i).Var()
		if !unowned(root) {
			// An owned root is exported by its owner; const- and PI-driven
			// POs map directly at stitch time.
			isOut[root] = a.IsAnd(root)
			continue
		}
		// The unowned part of the cone, in postorder (topological). The
		// provisional stamp keeps a node from being collected twice; the
		// cluster that takes the cone restamps it.
		cone = cone[:0]
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			if v := a.Fanin0(id).Var(); unowned(v) {
				stack = append(stack, v)
			} else if v := a.Fanin1(id).Var(); unowned(v) {
				stack = append(stack, v)
			} else {
				owner[id] = -1
				cone = append(cone, id)
				stack = stack[:len(stack)-1]
			}
		}
		if len(cur.members) > 0 && len(cur.members)+len(cone) > target {
			closeCluster()
		}
		for _, id := range cone {
			owner[id] = int32(cur.index) + 1
		}
		cur.members = append(cur.members, cone...)
		cur.poIdx = append(cur.poIdx, i)
		if len(cur.members) >= target {
			closeCluster()
		}
	}
	if len(cur.members) > 0 {
		parts = append(parts, cur)
	}
	wire(a, parts, owner, isOut)
	return parts
}

// wire derives every partition's interface from the ownership map (AND node
// -> part index + 1): its inputs are the PIs and the AND nodes of other
// partitions its members read, in order of first use, and its outputs are
// the members marked in isOut on entry (PO drivers that resolve through the
// boundary map) or read by another partition. Readers sit in higher
// partitions, so walking the partitions downwards sees every read of a
// member before listing it.
func wire(a *aig.AIG, parts []*part, owner []int32, isOut []bool) {
	seen := make([]int32, a.NumObjs()) // part index + 1 that last listed the node as an input
	for k := len(parts) - 1; k >= 0; k-- {
		p, w := parts[k], int32(k)+1
		for _, id := range p.members {
			for _, f := range [2]aig.Lit{a.Fanin0(id), a.Fanin1(id)} {
				v := f.Var()
				if v == 0 || owner[v] == w {
					continue // constant, or a fanin inside the partition
				}
				isOut[v] = a.IsAnd(v)
				if seen[v] != w {
					seen[v] = w
					p.inputs = append(p.inputs, v)
				}
			}
			if isOut[id] {
				p.outputs = append(p.outputs, id)
			}
		}
	}
}

// buildWindows slices the network into contiguous level windows of about
// target AND nodes each. Every live AND node lands in exactly one window; a
// window's inputs are the PIs and lower-window nodes its members read, and
// its outputs are the members read by higher windows or POs.
func buildWindows(a *aig.AIG, target int) []*part {
	levels := a.NodeLevels()
	maxLev := int32(0)
	a.ForEachAnd(func(id int32) {
		if levels[id] > maxLev {
			maxLev = levels[id]
		}
	})
	if maxLev == 0 {
		return nil // no AND logic
	}
	count := make([]int, maxLev+1)
	a.ForEachAnd(func(id int32) { count[levels[id]]++ })

	// Greedy contiguous windows: accumulate levels until the target is met.
	winOf := make([]int32, maxLev+1)
	var parts []*part
	acc, lo := 0, 1
	for l := 1; l <= int(maxLev); l++ {
		winOf[l] = int32(len(parts))
		acc += count[l]
		if acc >= target && l < int(maxLev) {
			parts = append(parts, &part{index: len(parts), levelLo: lo, levelHi: l})
			lo, acc = l+1, 0
		}
	}
	parts = append(parts, &part{index: len(parts), levelLo: lo, levelHi: int(maxLev)})

	// Membership in id order: the base network is in canonical topological
	// id order, so members sorted by id are topological within the window.
	owner := make([]int32, a.NumObjs())
	a.ForEachAnd(func(id int32) {
		w := winOf[levels[id]]
		owner[id] = w + 1
		parts[w].members = append(parts[w].members, id)
	})
	isOut := make([]bool, a.NumObjs())
	for _, p := range a.POs() {
		isOut[p.Var()] = a.IsAnd(p.Var())
	}
	wire(a, parts, owner, isOut)
	return parts
}

// extractAll builds each partition's standalone cone: a fresh AIG whose PIs
// are the partition inputs (in order), whose AND nodes replay the members,
// and whose POs export first the outputs (regular polarity), then the
// original PO literals of poIdx. The extracted cone doubles as the
// checkpoint the partition rolls back to.
//
// Extraction is a pure read of the base network, so the partitions fan out
// over the pool; each task's translation scratch comes from the shared
// free-lists (one dirty literal array gated by a zeroed seen array). A task
// starting after ctx was cancelled leaves its cone nil; the caller checks ctx.
func extractAll(ctx context.Context, base *aig.AIG, parts []*part, pool *sched.Pool) []*aig.AIG {
	nobj := base.NumObjs()
	cones := make([]*aig.AIG, len(parts))
	tasks := make([]func(), len(parts))
	for pi := range parts {
		pi, p := pi, parts[pi]
		tasks[pi] = func() {
			if alive(ctx) != nil {
				return
			}
			local := pLitPool.Get(nobj)
			seen := pI32Pool.GetZeroed(nobj)
			defer func() {
				pLitPool.Put(local)
				pI32Pool.Put(seen)
			}()
			c := aig.NewCap(len(p.inputs), len(p.inputs)+1+len(p.members))
			c.Name = fmt.Sprintf("%s.part%d", base.Name, pi)
			local[0], seen[0] = aig.ConstFalse, 1
			for j, in := range p.inputs {
				local[in], seen[in] = c.PI(j), 1
			}
			at := func(f aig.Lit) aig.Lit {
				if seen[f.Var()] == 0 {
					panic(fmt.Sprintf("partition: part %d member references unextracted node %d", pi, f.Var()))
				}
				return local[f.Var()].NotCond(f.IsCompl())
			}
			for _, id := range p.members {
				lit := c.AddAndUnchecked(at(base.Fanin0(id)), at(base.Fanin1(id)))
				local[id], seen[id] = lit, 1
			}
			for _, outID := range p.outputs {
				c.AddPO(local[outID])
			}
			for _, po := range p.poIdx {
				l := base.PO(po)
				c.AddPO(at(l))
			}
			cones[pi] = c
		}
	}
	pool.Execute(tasks)
	return cones
}
