package balance

import (
	"sync/atomic"

	"aigre/internal/aig"
	"aigre/internal/gpu"
	"aigre/internal/hashtable"
)

// chunkSlack is the free room below which a worker slot's gather arena
// starts a new chunk instead of letting a subtree's inputs grow (and copy)
// the current one; most subtrees have two or three inputs.
const chunkSlack = 16

// combineStep ANDs two reconstruction items, creating a node through mk
// only when no trivial simplification applies, and propagating delays.
func combineStep(a, b item, mk func(f0, f1 aig.Lit) aig.Lit) item {
	if l, ok := aig.SimplifyAnd(a.lit, b.lit); ok {
		switch l {
		case a.lit:
			return a
		case b.lit:
			return b
		default:
			return item{lit: l} // constant, delay 0
		}
	}
	return item{delay: max32(a.delay, b.delay) + 1, lit: mk(a.lit, b.lit)}
}

// Parallel balances the AIG with the paper's GPU algorithm (Section IV-B/C):
// subtree collapse in parallel, then level-wise reconstruction from PIs to
// POs where each insertion pass concurrently creates one node per subtree
// through the shared hash table.
func Parallel(d *gpu.Device, a *aig.AIG) (*aig.AIG, Stats) {
	st := Stats{NodesBefore: a.NumAnds()}
	n := a.NumObjs()
	reach := a.TopoOrder(true)

	// Collapse step 1: reference counts and complemented-fanout flags, one
	// thread per reachable node (atomic increments, as a GPU kernel would).
	refs := make([]int32, n)
	complOut := make([]uint32, n)
	d.Launch("balance/refs", len(reach), func(tid int) int64 {
		id := reach[tid]
		for _, f := range [2]aig.Lit{a.Fanin0(id), a.Fanin1(id)} {
			atomic.AddInt32(&refs[f.Var()], 1)
			if f.IsCompl() {
				atomic.StoreUint32(&complOut[f.Var()], 1)
			}
		}
		return 2
	})
	poDriver := make([]uint32, n)
	pos := a.POs()
	d.Launch1("balance/po-refs", len(pos), func(tid int) {
		v := pos[tid].Var()
		atomic.AddInt32(&refs[v], 1)
		atomic.StoreUint32(&poDriver[v], 1)
	})

	// Collapse step 2: classify subtree roots. A node roots a subtree when
	// it cannot be absorbed into its (unique) fanout's cluster: it drives a
	// PO, has multiple references, or its single fanout edge is
	// complemented.
	isRoot := make([]bool, n)
	d.Launch1("balance/classify", len(reach), func(tid int) {
		id := reach[tid]
		if poDriver[id] == 1 || refs[id] != 1 || complOut[id] == 1 {
			isRoot[id] = true
		}
	})
	roots := gpu.Compact(d, "balance/roots", reach, boolsOf(isRoot, reach))

	// Collapse step 3: gather the n-ary AND inputs of every subtree. Each
	// worker slot appends them to its own literal arena, in chunks: a full
	// chunk is left behind, never moved, so the inputs recorded in it stay
	// valid. The inputs of all subtrees number len(reach)+len(roots) (every
	// AND node has two fanins, and every non-root node is absorbed by exactly
	// one of them), so four chunks per slot hold the pass with little waste.
	chunk := max(1024, (len(reach)+len(roots))/(4*d.Workers()))
	arenas := make([][]aig.Lit, d.Workers())
	stacks := make([][]int32, d.Workers())
	inputs := make([][]aig.Lit, len(roots))
	d.LaunchSlots("balance/gather", len(roots), func(slot, tid int) int64 {
		arena := arenas[slot]
		if cap(arena)-len(arena) < chunkSlack {
			arena = make([]aig.Lit, 0, chunk)
		}
		off := len(arena)
		arena, stacks[slot] = gatherSubtree(a, refs, roots[tid], arena, stacks[slot])
		arenas[slot] = arena
		inputs[tid] = arena[off:len(arena):len(arena)]
		return int64(len(inputs[tid]))
	})
	st.Subtrees = len(roots)

	// Dependency levels of the collapsed network (the level of a subtree is
	// 1 + the maximum level of the subtrees feeding it, PIs at 0). Computed on
	// the host over roots, which are in reach's topological order, so inputs
	// precede the subtrees they feed; on a real GPU this falls out of the
	// POs-to-PIs collapse itself.
	level := make([]int32, n) // per node: its subtree's level, 0 if it roots none
	rootLevel := make([]int32, len(roots))
	for i, r := range roots {
		for _, f := range inputs[i] {
			rootLevel[i] = max(rootLevel[i], level[f.Var()]+1)
		}
		level[r] = rootLevel[i]
	}

	// Reconstruction: allocate the output network and the shared hash
	// table. Each subtree with k inputs needs at most k-1 nodes.
	counts := make([]int32, len(roots))
	itemOff := make([]int32, len(roots)+1) // prefix sum of input counts
	for i := range roots {
		k := int32(len(inputs[i]))
		if k > 1 {
			counts[i] = k - 1
		}
		itemOff[i+1] = itemOff[i] + k
	}
	offsets, totalSlots := d.ExclusiveScan("balance/slot-scan", counts)
	out := aig.NewCap(a.NumPIs(), a.NumPIs()+1+int(totalSlots))
	out.Name = a.Name
	base := out.ExtendSlots(int(totalSlots))
	ht := hashtable.New(int(totalSlots) + 16)

	newItem := make([]item, n) // balanced (literal, delay) per original node
	for i := 1; i <= a.NumPIs(); i++ {
		newItem[i] = item{lit: aig.MakeLit(int32(i), false)}
	}
	used := make([]int32, len(roots))
	// Reconstruction tables: subtree ri's heap is its window of one flat item
	// array, itemStore[itemOff[ri]:itemOff[ri+1]], cut to heapLen[ri] items
	// (0 until its batch initializes it, or when its inputs collapsed). An
	// insertion pass pops two items before it pushes one, so a heap never
	// outgrows its window.
	itemStore := make([]item, itemOff[len(roots)])
	heapLen := make([]int32, len(roots))

	d.Waves(rootLevel, func(batch []int32) {
		// Initialize the reconstruction table for this batch (Figure 6a).
		d.Launch("balance/recon-init", len(batch), func(tid int) int64 {
			ri := batch[tid]
			ins := inputs[ri]
			items := itemStore[itemOff[ri]:itemOff[ri+1]:itemOff[ri+1]]
			for j, f := range ins {
				m := newItem[f.Var()]
				items[j] = item{delay: m.delay, lit: m.lit.NotCond(f.IsCompl())}
			}
			reduced, single, collapsed := normalizeInputs(items)
			if collapsed {
				newItem[roots[ri]] = single
				return int64(len(ins))
			}
			h := itemHeap{s: reduced} // a prefix of the window
			h.heapify()
			heapLen[ri] = int32(h.len())
			return int64(len(ins))
		})
		// Insertion passes: one new node per subtree per pass (Figure 6b-c)
		// until every subtree in the batch is reduced to a single literal. A
		// pass shortens every heap of two or more items by one, so the
		// largest heap sets the number of passes.
		passes := int32(0)
		for _, ri := range batch {
			passes = max(passes, heapLen[ri]-1)
		}
		for range passes {
			d.Launch("balance/insert-pass", len(batch), func(tid int) int64 {
				ri := batch[tid]
				if heapLen[ri] < 2 {
					return 1
				}
				h := itemHeap{s: itemStore[itemOff[ri] : itemOff[ri]+heapLen[ri] : itemOff[ri+1]]}
				x := h.pop()
				y := h.pop()
				// The first insert wins; a loser's slot stays unused.
				res := combineStep(x, y, func(f0, f1 aig.Lit) aig.Lit {
					slot := base + offsets[ri] + used[ri]
					got, created := ht.InsertUnique(aig.Key(f0, f1), uint32(slot))
					if created {
						out.SetFanins(slot, f0, f1)
						used[ri]++
					}
					return aig.MakeLit(int32(got), false)
				})
				h.push(res)
				heapLen[ri] = int32(h.len())
				return 4
			})
		}
		// Publish batch results.
		d.Launch1("balance/publish", len(batch), func(tid int) {
			if ri := batch[tid]; heapLen[ri] == 1 {
				newItem[roots[ri]] = itemStore[itemOff[ri]]
			}
		})
	})

	for _, p := range a.POs() {
		m := newItem[p.Var()]
		out.AddPO(m.lit.NotCond(p.IsCompl()))
	}
	final, _ := out.Compact()
	st.NodesAfter = final.NumAnds()
	return final, st
}

// boolsOf projects the keep flags of the given ids into a parallel slice.
func boolsOf(flags []bool, ids []int32) []bool {
	out := make([]bool, len(ids))
	for i, id := range ids {
		out[i] = flags[id]
	}
	return out
}
