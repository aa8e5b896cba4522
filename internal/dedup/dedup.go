// Package dedup implements the paper's post-processing pass (Section III-F):
// de-duplication of structurally identical nodes and dangling-node removal.
//
// The paper's parallel replacement leaves duplicate pairs behind (Figure 4:
// when the new root of a resynthesized cone already exists, fanouts of the
// old and new roots may become structurally identical), and local functions
// that do not depend on all leaves leave dangling nodes, so
// core.ApplyReplacements hands Merge its uncompacted network, as does the
// partition stitch, and Merge's compaction is the only one. The in-place
// editor under rewriting and resubstitution merges duplicates as it replaces
// and leaves neither. Either way the result is Clean (aig.(*AIG).Clean).
// Run is the pass alone, the dedup command's engine; it returns a Clean
// network node for node.
//
// De-duplication must proceed level-wise from PIs to POs because merging two
// nodes can create new duplicates among their fanouts.
package dedup

import (
	"aigre/internal/aig"
	"aigre/internal/gpu"
	"aigre/internal/hashtable"
)

// Stats reports one cleanup pass.
type Stats struct {
	DuplicatesMerged int
	TriviallyReduced int // nodes removed by constant propagation
	DanglingRemoved  int
	// Rehashes is always 0: the table is sized for one key per AND and never
	// grows. The field stays for the benchmark's dedup.rehashes probe.
	Rehashes int
}

// Run de-duplicates the AIG level-wise in parallel and removes dangling
// nodes, returning a compacted network. The input is not modified.
func Run(d *gpu.Device, a *aig.AIG) (*aig.AIG, Stats) {
	out, _, st := Merge(d, a.Clone())
	return out, st
}

// Merge is Run on a network the caller hands over: work is rewritten in
// place and must not be used afterwards. Besides the compacted network it
// returns the final literal of every node of work (a survivor maps to
// itself), in the id space of work.
//
// Every class of structural duplicates keeps its member of lowest (level, id)
// rank: the earliest level the class appears at, then the lowest id there —
// the conflict breaking by fixed priority of "Parallel AIG Refactoring via
// Conflict Breaking". The level kernel resolves fanins through plain reads of
// remap and inserts each node once with InsertUnique. A class's first insert
// lands in the first wave that holds a member, so its resident is at the
// class's level, but on more than one worker not always the lowest id there;
// a member of the resident's level with a lower id is recorded by its worker
// slot, and the closing sweep relabels every fanin, and remap, to each class's
// lowest such member. The classes do not depend on which member is resident,
// so only the representatives can differ between schedules; with one worker
// the resident always is the minimum and the sweep has nothing to do.
func Merge(d *gpu.Device, work *aig.AIG) (*aig.AIG, []aig.Lit, Stats) {
	var st Stats
	n := work.NumObjs()
	level := work.NodeLevels()
	remap := make([]aig.Lit, n)
	for i := range remap {
		remap[i] = aig.MakeLit(int32(i), false)
	}
	// At most one key per AND, so the table is never more than half full.
	ht := hashtable.Acquire(work.NumAnds() + 16)
	defer hashtable.Release(ht)
	// Per worker slot: merge counts, and the (resident, member) pairs where
	// the member has the lower (level, id) rank.
	merged := make([]int, d.Workers())
	trivial := make([]int, d.Workers())
	lower := make([][][2]int32, d.Workers())

	d.Waves(level, func(wave []int32) {
		d.LaunchSlots("dedup/level", len(wave), func(slot, tid int) int64 {
			id := wave[tid]
			f0 := work.Fanin0(id)
			f1 := work.Fanin1(id)
			// Fanins are at lower levels, so their remaps are final.
			nf0 := remap[f0.Var()].NotCond(f0.IsCompl())
			nf1 := remap[f1.Var()].NotCond(f1.IsCompl())
			work.SetFanins(id, nf0, nf1)
			if lit, ok := aig.SimplifyAnd(nf0, nf1); ok {
				remap[id] = lit
				trivial[slot]++
				return 2
			}
			got, inserted := ht.InsertUnique(aig.Key(nf0, nf1), uint32(id))
			if r := int32(got); !inserted && r != id {
				remap[id] = aig.MakeLit(r, false)
				merged[slot]++
				if id < r && level[r] == level[id] {
					lower[slot] = append(lower[slot], [2]int32{r, id})
				}
			}
			return 3
		})
	})
	// nil unless some resident is not its class's minimum; then each
	// resident's minimum member (every other node maps to itself).
	var winner []int32
	for slot := range merged {
		st.DuplicatesMerged += merged[slot]
		st.TriviallyReduced += trivial[slot]
		for _, p := range lower[slot] {
			if winner == nil {
				winner = make([]int32, n)
				for i := range winner {
					winner[i] = int32(i)
				}
			}
			winner[p[0]] = min(winner[p[0]], p[1])
		}
	}
	// The sweep relabels to the minimum-rank members, when a resident is
	// not one. Dangling-node removal: the paper assigns one thread per
	// zero-fanout node to delete its MFFC; compaction from the POs removes
	// exactly the same nodes, so the sweep is accounted as that kernel.
	sweep := func(int) {}
	if winner != nil {
		relabel := func(l aig.Lit) aig.Lit {
			return aig.MakeLit(winner[l.Var()], l.IsCompl())
		}
		sweep = func(tid int) {
			id := int32(tid)
			if work.IsAnd(id) {
				work.SetFanins(id, relabel(work.Fanin0(id)), relabel(work.Fanin1(id)))
			}
			remap[tid] = relabel(remap[tid])
		}
	}
	d.Launch1("dedup/dangling", n, sweep)
	for i, p := range work.POs() {
		work.SetPO(i, remap[p.Var()].NotCond(p.IsCompl()))
	}
	before := work.NumAnds()
	out, _ := work.Compact()
	st.DanglingRemoved = max(before-out.NumAnds()-st.DuplicatesMerged-st.TriviallyReduced, 0)
	return out, remap, st
}
