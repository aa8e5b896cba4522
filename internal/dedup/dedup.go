// Package dedup implements the paper's post-processing pass (Section III-F):
// de-duplication of structurally identical nodes and dangling-node removal.
//
// The paper's parallel replacement leaves duplicate pairs behind (Figure 4:
// when the new root of a resynthesized cone already exists, fanouts of the
// old and new roots may become structurally identical), and local functions
// that do not depend on all leaves leave dangling nodes, so
// core.ApplyReplacements ends with Merge, as does the partition stitch. The
// in-place editor under rewriting and resubstitution merges duplicates as it
// replaces and leaves neither. Run is the pass alone: the dedup command's
// engine, and the reference a clean network is checked against.
//
// De-duplication must proceed level-wise from PIs to POs because merging two
// nodes can create new duplicates among their fanouts.
package dedup

import (
	"sync/atomic"

	"aigre/internal/aig"
	"aigre/internal/gpu"
	"aigre/internal/hashtable"
)

// Stats reports one cleanup pass.
type Stats struct {
	DuplicatesMerged int
	TriviallyReduced int // nodes removed by constant propagation
	DanglingRemoved  int
	Levels           int // level batches processed
	Rehashes         int // hash-table growth events (full-table recovery)
}

// Run de-duplicates the AIG level-wise in parallel and removes dangling
// nodes, returning a compacted network. The input is not modified.
func Run(d *gpu.Device, a *aig.AIG) (*aig.AIG, Stats) {
	out, _, st := merge(d, a.Clone(), a.NumAnds()+16)
	return out, st
}

// Merge is Run on a network the caller hands over: work is rewritten in
// place and must not be used afterwards. Besides the compacted network it
// returns the final literal of every node of work (a survivor maps to
// itself), in the id space of work.
func Merge(d *gpu.Device, work *aig.AIG) (*aig.AIG, []aig.Lit, Stats) {
	return merge(d, work, work.NumAnds()+16)
}

// merge is Merge with an explicit hash-table capacity hint, so tests can
// start from a deliberately undersized table and exercise the rehash
// recovery.
//
// Every class of structural duplicates keeps its member of lowest rank, the
// (level, id) order: the earliest level the class appears at, then the
// lowest id there — the conflict breaking by fixed priority of "Parallel AIG
// Refactoring via Conflict Breaking". The level kernel resolves fanins
// through plain reads of remap and inserts each node once with InsertUnique;
// whichever member's insert lands first is the class's resident, and every
// other member lowers the resident's rank slot to its own rank with one
// atomic min. The classes do not depend on which member is resident, so only
// the representatives can differ between schedules; when some resident is
// not its class's minimum-rank member, the closing sweep relabels every
// fanin, and remap, to those members. With one worker the resident always is
// that member and the sweep has nothing to do.
func merge(d *gpu.Device, work *aig.AIG, tableCap int) (*aig.AIG, []aig.Lit, Stats) {
	var st Stats
	n := work.NumObjs()
	// Bucket the nodes by level (a counting sort: id order within a level).
	// order lists every node, const, PIs and deleted nodes at level 0; the
	// level array becomes each node's rank, its position in order.
	rank := work.NodeLevels()
	maxLevel := int32(0)
	for _, l := range rank {
		maxLevel = max(maxLevel, l)
	}
	start := make([]int32, maxLevel+2)
	for _, l := range rank {
		start[l+1]++
	}
	for lv := range maxLevel + 1 {
		start[lv+1] += start[lv]
	}
	order := make([]int32, n)
	fill := append([]int32(nil), start[:maxLevel+1]...)
	for id, l := range rank {
		order[fill[l]] = int32(id)
		rank[id] = fill[l]
		fill[l]++
	}

	remap := make([]aig.Lit, n)
	for i := range remap {
		remap[i] = aig.MakeLit(int32(i), false)
	}
	ht := hashtable.Acquire(tableCap)
	defer hashtable.Release(ht)
	// Per-thread counters are sized for the largest level once, instead of
	// being reallocated for every level batch.
	maxBatch := int32(0)
	for lv := int32(1); lv <= maxLevel; lv++ {
		maxBatch = max(maxBatch, start[lv+1]-start[lv])
	}
	mergedPer := make([]int32, maxBatch)
	trivialPer := make([]int32, maxBatch)
	var relabel atomic.Bool // some class's minimum-rank member is not its resident

	for lv := int32(1); lv <= maxLevel; lv++ {
		first := start[lv]
		batch := order[first:start[lv+1]]
		if len(batch) == 0 {
			continue
		}
		st.Levels++
		merged, trivial := mergedPer[:len(batch)], trivialPer[:len(batch)]
		// A full hash table degrades gracefully: the batch is retried after
		// growing the table (rehashing happens between launches, where
		// single-threaded access is safe). The kernel is idempotent — fanin
		// remaps resolve to the same literals on a retry, and the rank min is
		// monotone — so re-running a partially processed batch is sound.
		for {
			clear(merged)
			clear(trivial)
			var full atomic.Bool
			d.Launch("dedup/level", len(batch), func(tid int) int64 {
				id := batch[tid]
				f0 := work.Fanin0(id)
				f1 := work.Fanin1(id)
				// Fanins are at lower levels, so their remaps are final.
				nf0 := remap[f0.Var()].NotCond(f0.IsCompl())
				nf1 := remap[f1.Var()].NotCond(f1.IsCompl())
				work.SetFanins(id, nf0, nf1)
				if lit, ok := aig.SimplifyAnd(nf0, nf1); ok {
					remap[id] = lit
					trivial[tid] = 1
					return 2
				}
				got, inserted, err := ht.InsertUnique(aig.Key(nf0, nf1), uint32(id))
				if err != nil {
					full.Store(true)
					return 3
				}
				if !inserted && got != uint32(id) {
					remap[id] = aig.MakeLit(int32(got), false)
					merged[tid] = 1
					// The resident's own rank needs no min: it starts there.
					for slot, mine := &rank[got], first+int32(tid); ; {
						cur := atomic.LoadInt32(slot)
						if mine >= cur {
							break
						}
						if atomic.CompareAndSwapInt32(slot, cur, mine) {
							relabel.Store(true)
							break
						}
					}
				}
				return 3
			})
			if !full.Load() {
				break
			}
			st.Rehashes++
			ht.Rehash(2*ht.Len() + len(batch))
		}
		for i := range batch {
			st.DuplicatesMerged += int(merged[i])
			st.TriviallyReduced += int(trivial[i])
		}
	}
	// The sweep relabels to the minimum-rank members, when a resident is
	// not one. Dangling-node removal: the paper assigns one thread per
	// zero-fanout node to delete its MFFC; compaction from the POs removes
	// exactly the same nodes, so the sweep is accounted as that kernel.
	sweep := func(int) {}
	if relabel.Load() {
		winner := func(l aig.Lit) aig.Lit {
			return aig.MakeLit(order[rank[l.Var()]], l.IsCompl())
		}
		sweep = func(tid int) {
			id := int32(tid)
			if work.IsAnd(id) {
				work.SetFanins(id, winner(work.Fanin0(id)), winner(work.Fanin1(id)))
			}
			remap[tid] = winner(remap[tid])
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
