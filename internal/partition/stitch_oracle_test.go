package partition

import (
	"fmt"

	"aigre/internal/aig"
)

// stitch is the oracle stitchParallel is tested against: it replays the
// chosen cone of every partition, in index order, into one fresh, fully
// strashed network (a partition's boundary inputs are produced by
// lower-indexed partitions or PIs). The per-partition conflict counts report
// how many replayed nodes NewAnd merged with an existing node or simplified
// away.
func stitch(base *aig.AIG, parts []*part, chosen []*aig.AIG) (*aig.AIG, []int, error) {
	out := aig.NewCap(base.NumPIs(), base.NumObjs())
	out.EnableStrash()
	nobj := base.NumObjs()
	boundary := make([]aig.Lit, nobj) // base node id -> out literal (regular sense)
	have := make([]bool, nobj)
	have[0] = true
	boundary[0] = aig.ConstFalse
	for i := 0; i < base.NumPIs(); i++ {
		boundary[i+1] = base.PI(i)
		have[i+1] = true
	}
	conflicts := make([]int, len(parts))
	poLit := make([]aig.Lit, base.NumPOs())
	poSet := make([]bool, base.NumPOs())

	var local []aig.Lit
	for pi, p := range parts {
		c := chosen[pi]
		if cap(local) < c.NumObjs() {
			local = make([]aig.Lit, c.NumObjs())
		}
		local = local[:c.NumObjs()]
		local[0] = aig.ConstFalse
		if c.NumPIs() != len(p.inputs) {
			return nil, nil, fmt.Errorf("partition: part %d cone has %d PIs, want %d", pi, c.NumPIs(), len(p.inputs))
		}
		for j, in := range p.inputs {
			if !have[in] {
				return nil, nil, fmt.Errorf("partition: part %d input node %d not yet stitched", pi, in)
			}
			local[j+1] = boundary[in]
		}
		// Replay the cone's AND nodes. Optimized cones come out of the
		// guarded flow runner compacted (canonical topological id order);
		// deleted slots are skipped defensively.
		for id := int32(c.NumPIs() + 1); int(id) < c.NumObjs(); id++ {
			if c.IsDeleted(id) {
				continue
			}
			f0, f1 := c.Fanin0(id), c.Fanin1(id)
			l0 := local[f0.Var()].NotCond(f0.IsCompl())
			l1 := local[f1.Var()].NotCond(f1.IsCompl())
			before := out.NumObjs()
			lit := out.NewAnd(l0, l1)
			if out.NumObjs() == before {
				conflicts[pi]++
			}
			local[id] = lit
		}
		if c.NumPOs() != len(p.outputs)+len(p.poIdx) {
			return nil, nil, fmt.Errorf("partition: part %d cone has %d POs, want %d",
				pi, c.NumPOs(), len(p.outputs)+len(p.poIdx))
		}
		for j, outID := range p.outputs {
			l := c.PO(j)
			boundary[outID] = local[l.Var()].NotCond(l.IsCompl())
			have[outID] = true
		}
		for j, po := range p.poIdx {
			l := c.PO(len(p.outputs) + j)
			poLit[po] = local[l.Var()].NotCond(l.IsCompl())
			poSet[po] = true
		}
	}
	// POs no partition lists in poIdx (const/PI-driven or on an already
	// claimed root in cones mode, every PO in levels mode) resolve through
	// the boundary map.
	for i := 0; i < base.NumPOs(); i++ {
		if poSet[i] {
			continue
		}
		p := base.PO(i)
		if !have[p.Var()] {
			return nil, nil, fmt.Errorf("partition: PO %d driver node %d not stitched", i, p.Var())
		}
		poLit[i] = boundary[p.Var()].NotCond(p.IsCompl())
	}
	for _, l := range poLit {
		out.AddPO(l)
	}
	final, _ := out.Compact()
	out.ReleaseStrash()
	final.Name = base.Name
	return final, conflicts, nil
}
