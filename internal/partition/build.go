package partition

import (
	"context"
	"fmt"

	"aigre/internal/aig"
	"aigre/internal/sched"
)

// part is one partition of the base network, described in base node ids.
type part struct {
	index int
	// inputs are the boundary driver nodes feeding the partition, in the
	// order the extracted cone's PIs are laid out: original PIs in cones
	// mode, PIs and lower-window AND nodes in levels mode.
	inputs []int32
	// members are the partition's AND nodes in topological order.
	members []int32
	// outputs are the member nodes whose functions the partition exports to
	// higher windows or POs (levels mode; empty in cones mode).
	outputs []int32
	// poIdx are the original PO indices the partition drives (cones mode;
	// empty in levels mode, where POs resolve through the boundary map).
	poIdx []int
	// levelLo/levelHi is the level range (levels mode).
	levelLo, levelHi int
}

// buildCones clusters primary outputs greedily into size-bounded partitions:
// POs are taken in order, each PO's fanin cone is added to the current
// cluster, and the cluster is closed when adding the next cone would push it
// past target (an oversize single cone still becomes one partition). Logic
// shared between clusters is duplicated into each; the stitcher merges the
// copies back.
func buildCones(a *aig.AIG, target int) []*part {
	nobj := a.NumObjs()
	mark := make([]int32, nobj)  // node -> cluster number (1-based; 0 = none)
	probe := make([]int32, nobj) // probe epoch, one per measured PO
	var stack []int32
	var parts []*part
	var cur *part
	cluster := int32(0)
	probeID := int32(0)

	flush := func() {
		if cur != nil && len(cur.members) > 0 {
			parts = append(parts, cur)
		}
		cur = nil
	}
	open := func() {
		cluster++
		cur = &part{index: len(parts)}
	}

	for i := 0; i < a.NumPOs(); i++ {
		root := a.PO(i).Var()
		if !a.IsAnd(root) {
			continue // const/PI-driven POs map directly at stitch time
		}
		if cur == nil {
			open()
		}
		// Probe: how many AND nodes would this cone add to the cluster?
		probeID++
		added := 0
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if !a.IsAnd(id) || mark[id] == cluster || probe[id] == probeID {
				continue
			}
			probe[id] = probeID
			added++
			stack = append(stack, a.Fanin0(id).Var(), a.Fanin1(id).Var())
		}
		if len(cur.members) > 0 && len(cur.members)+added > target {
			flush()
			open()
		}
		commitCone(a, root, cluster, mark, cur, &stack)
		cur.poIdx = append(cur.poIdx, i)
		if len(cur.members) >= target {
			flush()
		}
	}
	flush()
	return parts
}

// commitCone adds the fanin cone of root to the cluster: a postorder DFS
// appends unassigned AND nodes to cur.members (topological within the
// cluster) and records first-seen support PIs as cluster inputs.
func commitCone(a *aig.AIG, root, cluster int32, mark []int32, cur *part, stackp *[]int32) {
	stack := append((*stackp)[:0], root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		if mark[id] == cluster {
			stack = stack[:len(stack)-1]
			continue
		}
		if !a.IsAnd(id) {
			mark[id] = cluster
			if a.IsPI(id) {
				cur.inputs = append(cur.inputs, id)
			}
			stack = stack[:len(stack)-1]
			continue
		}
		if v0 := a.Fanin0(id).Var(); mark[v0] != cluster {
			stack = append(stack, v0)
			continue
		}
		if v1 := a.Fanin1(id).Var(); mark[v1] != cluster {
			stack = append(stack, v1)
			continue
		}
		mark[id] = cluster
		cur.members = append(cur.members, id)
		stack = stack[:len(stack)-1]
	}
	*stackp = stack
}

// buildWindows slices the network into contiguous level windows of about
// target AND nodes each. Every live AND node lands in exactly one window
// (no duplication); a window's inputs are the PIs and lower-window nodes its
// members read, and its outputs are the members read by higher windows or
// POs.
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
	a.ForEachAnd(func(id int32) {
		p := parts[winOf[levels[id]]]
		p.members = append(p.members, id)
	})

	// Outputs: members referenced from a different (necessarily higher)
	// window, or driving a PO.
	isOut := make([]bool, a.NumObjs())
	a.ForEachAnd(func(id int32) {
		w := winOf[levels[id]]
		for _, f := range [2]aig.Lit{a.Fanin0(id), a.Fanin1(id)} {
			if v := f.Var(); a.IsAnd(v) && winOf[levels[v]] != w {
				isOut[v] = true
			}
		}
	})
	for _, p := range a.POs() {
		if v := p.Var(); a.IsAnd(v) {
			isOut[v] = true
		}
	}

	// Inputs (deduplicated per window) and the window's own output list.
	seen := make([]int32, a.NumObjs()) // window number + 1
	for _, p := range parts {
		w := int32(p.index)
		for _, id := range p.members {
			for _, f := range [2]aig.Lit{a.Fanin0(id), a.Fanin1(id)} {
				v := f.Var()
				if v == 0 || (a.IsAnd(v) && winOf[levels[v]] == w) {
					continue // constant, or an in-window fanin
				}
				if seen[v] == w+1 {
					continue
				}
				seen[v] = w + 1
				p.inputs = append(p.inputs, v)
			}
			if isOut[id] {
				p.outputs = append(p.outputs, id)
			}
		}
	}
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
