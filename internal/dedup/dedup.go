// Package dedup implements the paper's post-processing pass (Section III-F):
// de-duplication of structurally identical nodes and dangling-node removal.
//
// Parallel replacement and parallel rewriting can leave duplicate pairs
// behind (Figure 4: when the new root of a resynthesized cone already exists,
// fanouts of the old and new roots may become structurally identical), and
// local functions that do not depend on all leaves leave dangling nodes.
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
// nodes, returning a compacted network.
func Run(d *gpu.Device, a *aig.AIG) (*aig.AIG, Stats) {
	return run(d, a, a.NumAnds()+16)
}

// run is Run with an explicit hash-table capacity hint, so tests can start
// from a deliberately undersized table and exercise the rehash recovery.
func run(d *gpu.Device, a *aig.AIG, tableCap int) (*aig.AIG, Stats) {
	var st Stats
	work := a.Clone()
	n := work.NumObjs()
	levels := work.NodeLevels()
	maxLevel := int32(0)
	for _, l := range levels {
		if l > maxLevel {
			maxLevel = l
		}
	}
	byLevel := make([][]int32, maxLevel+1)
	work.ForEachAnd(func(id int32) {
		byLevel[levels[id]] = append(byLevel[levels[id]], id)
	})

	remap := make([]aig.Lit, n)
	for i := range remap {
		remap[i] = aig.MakeLit(int32(i), false)
	}
	ht := hashtable.Acquire(tableCap)
	defer hashtable.Release(ht)
	merged := make([]int32, len(byLevel))
	trivial := make([]int32, len(byLevel))
	maxBatch := 0
	for _, b := range byLevel {
		if len(b) > maxBatch {
			maxBatch = len(b)
		}
	}
	// Per-thread counter arrays are sized for the largest level once, instead
	// of being reallocated for every level batch.
	mergedAll := make([]int32, maxBatch)
	trivialAll := make([]int32, maxBatch)

	for lv := int32(1); lv <= maxLevel; lv++ {
		batch := byLevel[lv]
		if len(batch) == 0 {
			continue
		}
		st.Levels++
		var mergedHere, trivialHere int32
		mergedPer := mergedAll[:len(batch)]
		trivialPer := trivialAll[:len(batch)]
		clear(mergedPer)
		clear(trivialPer)
		// A full hash table degrades gracefully: the batch is retried after
		// growing the table (rehashing happens between launches, where
		// single-threaded access is safe). The kernel is idempotent — fanin
		// remaps resolve to the same literals on a retry — so re-running a
		// partially processed batch is sound.
		for {
			var full int32
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
					trivialPer[tid] = 1
					return 2
				}
				got, inserted, err := ht.InsertUnique(aig.Key(nf0, nf1), uint32(id))
				if err != nil {
					atomic.StoreInt32(&full, 1)
					return 3
				}
				if !inserted && got != uint32(id) {
					remap[id] = aig.MakeLit(int32(got), false)
					mergedPer[tid] = 1
				}
				return 3
			})
			if atomic.LoadInt32(&full) == 0 {
				break
			}
			st.Rehashes++
			ht.Rehash(2*ht.Len() + len(batch))
			for i := range batch {
				mergedPer[i] = 0
				trivialPer[i] = 0
			}
		}
		for i := range batch {
			mergedHere += mergedPer[i]
			trivialHere += trivialPer[i]
		}
		merged[lv] = mergedHere
		trivial[lv] = trivialHere
	}
	for lv := range merged {
		st.DuplicatesMerged += int(merged[lv])
		st.TriviallyReduced += int(trivial[lv])
	}
	for i, p := range work.POs() {
		work.SetPO(i, remap[p.Var()].NotCond(p.IsCompl()))
	}
	// Dangling-node removal: the paper assigns one thread per zero-fanout
	// node to delete its MFFC; compaction from the POs removes exactly the
	// same nodes. Account it as one sweep kernel.
	d.Launch1("dedup/dangling", work.NumObjs(), func(int) {})
	before := work.NumAnds()
	out, _ := work.Compact()
	st.DanglingRemoved = before - out.NumAnds() - st.DuplicatesMerged - st.TriviallyReduced
	if st.DanglingRemoved < 0 {
		st.DanglingRemoved = 0
	}
	return out, st
}
