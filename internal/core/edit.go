package core

import "aigre/internal/aig"

// EditInPlace is the scaffold of every engine that edits a network in place
// (sequential rewriting, refactoring and resubstitution, and the host
// replacement steps of the [9]-style passes): pass receives a copy of a, with
// structural hashing and live fanout lists, and the compacted network comes
// back; a is never touched. a is expected Clean (aig.(*AIG).Clean), as
// flow.Run hands every command its input, and is edited as it is otherwise.
// pass may edit the copy directly; a visit function it returns is then
// called for every AND node that existed at that point, in id order,
// skipping the nodes deleted since (nodes created by the edits are not
// visited).
func EditInPlace(a *aig.AIG, pass func(work *aig.AIG) (visit func(id int32))) *aig.AIG {
	work := a.Clone()
	work.EnableStrash()
	work.EnableFanouts()
	if visit := pass(work); visit != nil {
		lastOriginal := int32(work.NumObjs())
		for id := int32(work.NumPIs() + 1); id < lastOriginal; id++ {
			if !work.IsDeleted(id) {
				visit(id)
			}
		}
	}
	out, _ := work.Compact()
	work.ReleaseStrash()
	return out
}
