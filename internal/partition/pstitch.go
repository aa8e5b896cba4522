package partition

import (
	"fmt"
	"sort"

	"aigre/internal/aig"
	"aigre/internal/dedup"
	"aigre/internal/gpu"
)

// unresolved marks a literal slot still to be filled: a boundary-map entry
// no partition (and no PI) has driven, an extraction slot no cone has set.
const unresolved = ^aig.Lit(0)

// coneMap places one partition's compacted cone in the gid space: its AND
// nodes fill the range starting at lo in id order, its nIn inputs resolve
// through the boundary map.
type coneMap struct {
	lo, nIn  int32
	inputs   []int32
	boundary []aig.Lit
}

// lit maps a literal of the cone into the gid space.
func (m coneMap) lit(l aig.Lit) aig.Lit {
	g := aig.ConstFalse
	if v := l.Var(); v > m.nIn {
		g = aig.MakeLit(m.lo+v-m.nIn-1, false)
	} else if v > 0 {
		g = m.boundary[m.inputs[v-1]]
	}
	return g.NotCond(l.IsCompl())
}

// stitchParallel builds the merged network from the chosen cone of every
// partition, in both modes, and reports per partition how many of its nodes
// were broken at the seam: merged with a structural duplicate another
// partition also created, or simplified away against boundary constants.
//
// Every chosen cone is compacted, so its k-th AND node has a fixed place in
// a shared gid space: gid 0 is const-false, 1..nPI the base PIs, then one
// contiguous range per partition in index order. A sequential pre-pass over
// the exported outputs fills the boundary map (base node id -> gid-space
// literal) by that arithmetic; a partition's inputs must already be driven
// by a PI or a lower-indexed partition when its turn comes. With the map
// complete, one launch concatenates every cone into its range, each thread
// one node, cross-partition edges plain reads of the map. The concatenation
// is a canonical network, and the de-duplication pass merges its duplicates:
// dedup.Merge keeps the minimum (level, gid) member of every class and
// simplifies trivial nodes against their finalized fanins as NewAnd would,
// so the result does not depend on the worker count and its quotient graph
// is the one an in-order strash replay builds. Launches run on d; a
// cancelled context bound to it stops the stitch at the next launch with the
// *gpu.CancelledError.
func stitchParallel(d *gpu.Device, base *aig.AIG, parts []*part, chosen []*aig.AIG) (*aig.AIG, []int, error) {
	nPI := base.NumPIs()
	nParts := len(parts)

	offs := make([]int, nParts+1)
	offs[0] = 1 + nPI
	for i, c := range chosen {
		offs[i+1] = offs[i] + c.NumAnds()
	}
	totalLen := offs[nParts]

	boundary := make([]aig.Lit, base.NumObjs())
	for v := range boundary {
		boundary[v] = unresolved
	}
	for v := 0; v <= nPI; v++ {
		boundary[v] = aig.MakeLit(int32(v), false)
	}
	poGlobal := make([]aig.Lit, base.NumPOs())
	for i := range poGlobal {
		poGlobal[i] = unresolved
	}
	maps := make([]coneMap, nParts)
	for pi, p := range parts {
		c := chosen[pi]
		if c.NumPIs() != len(p.inputs) {
			return nil, nil, fmt.Errorf("partition: part %d cone has %d PIs, want %d", pi, c.NumPIs(), len(p.inputs))
		}
		if c.NumPOs() != len(p.outputs)+len(p.poIdx) {
			return nil, nil, fmt.Errorf("partition: part %d cone has %d POs, want %d",
				pi, c.NumPOs(), len(p.outputs)+len(p.poIdx))
		}
		if c.NumObjs() != c.NumPIs()+1+c.NumAnds() {
			return nil, nil, fmt.Errorf("partition: part %d cone is not compacted", pi)
		}
		for _, in := range p.inputs {
			if boundary[in] == unresolved {
				return nil, nil, fmt.Errorf("partition: part %d input node %d not yet stitched", pi, in)
			}
		}
		m := coneMap{int32(offs[pi]), int32(c.NumPIs()), p.inputs, boundary}
		maps[pi] = m
		for j, l := range c.POs() {
			if int(l.Var()) >= c.NumObjs() {
				return nil, nil, fmt.Errorf("partition: part %d output %d reads node %d outside its cone", pi, j, l.Var())
			}
			if j < len(p.outputs) {
				boundary[p.outputs[j]] = m.lit(l)
			} else {
				poGlobal[p.poIdx[j-len(p.outputs)]] = m.lit(l)
			}
		}
	}
	// POs no partition lists in poIdx (const- or PI-driven, or on a root an
	// earlier PO claimed, in cones mode; every PO in levels mode) resolve
	// through the boundary map.
	for i, g := range poGlobal {
		if g != unresolved {
			continue
		}
		p := base.PO(i)
		if boundary[p.Var()] == unresolved {
			return nil, nil, fmt.Errorf("partition: PO %d driver node %d not stitched", i, p.Var())
		}
		poGlobal[i] = boundary[p.Var()].NotCond(p.IsCompl())
	}

	cat := aig.NewCap(nPI, totalLen)
	cat.Name = base.Name
	cat.ExtendSlots(totalLen - offs[0])
	for _, g := range poGlobal {
		cat.AddPO(g)
	}
	var merged *aig.AIG
	var lits []aig.Lit
	err := launching(func() {
		d.Launch1("partition/concat", totalLen-offs[0], func(tid int) {
			gid := offs[0] + tid
			pi := sort.SearchInts(offs, gid+1) - 1 // the partition whose range holds gid
			c, m := chosen[pi], maps[pi]
			id := int32(c.NumPIs() + 1 + gid - offs[pi])
			cat.SetFanins(int32(gid), m.lit(c.Fanin0(id)), m.lit(c.Fanin1(id)))
		})
		merged, lits, _ = dedup.Merge(d, cat)
	})
	if err != nil {
		return nil, nil, err
	}

	// A node that did not survive as itself was broken at the seam.
	conflicts := make([]int, nParts)
	for pi := range parts {
		for gid := offs[pi]; gid < offs[pi+1]; gid++ {
			if lits[gid] != aig.MakeLit(int32(gid), false) {
				conflicts[pi]++
			}
		}
	}
	return merged, conflicts, nil
}

// launching runs fn, whose kernels launch on a device bound to the run's
// context, and returns the *gpu.CancelledError a refused launch panics with;
// any other panic goes on up.
func launching(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ce, ok := r.(*gpu.CancelledError)
			if !ok {
				panic(r)
			}
			err = ce
		}
	}()
	fn()
	return nil
}
