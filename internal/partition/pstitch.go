package partition

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"aigre/internal/aig"
	"aigre/internal/gpu"
	"aigre/internal/hashtable"
	"aigre/internal/mempool"
)

// Pooled scratch for parallel extraction and stitching. The arrays are
// proportional to the base network (millions of entries), re-acquired on
// every stitch round of every partitioned job — recycling them keeps the
// steady-state allocation rate of the whole partition path near zero.
var (
	pLitPool mempool.SlicePool[aig.Lit]
	pI32Pool mempool.SlicePool[int32]
)

// chunked fans fn over [0,n) in contiguous chunks on the pool, inline when
// the range is too small to be worth a goroutine handoff.
func chunked(pool *gpu.Pool, n int, fn func(lo, hi int)) {
	const minChunk = 512
	w := pool.Workers()
	if n <= minChunk || w <= 1 {
		fn(0, n)
		return
	}
	chunks := (n + minChunk - 1) / minChunk
	if chunks > w {
		chunks = w
	}
	size := (n + chunks - 1) / chunks
	tasks := make([]func(), 0, chunks)
	for lo := 0; lo < n; lo += size {
		lo, hi := lo, lo+size
		if hi > n {
			hi = n
		}
		tasks = append(tasks, func() { fn(lo, hi) })
	}
	pool.Execute(tasks)
}

// levelBatch is how many merge levels run between two liveness points.
const levelBatch = 256

// unresolved marks a literal slot still to be filled: a boundary-map entry
// no partition (and no PI) has driven, a node awaiting its class winner.
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
// partition, in both modes, and reports per partition how many replayed
// nodes were broken at the seam: merged with a structural duplicate another
// partition also created, or simplified away against boundary constants.
//
// Every chosen cone is compacted, so its k-th AND node has a fixed place in
// a shared gid space before anything is replayed: gid 0 is const-false,
// 1..nPI the base PIs, then one contiguous range per partition in index
// order. A sequential pre-pass over the exported outputs fills the boundary
// map (base node id -> gid-space literal) by that arithmetic; a partition's
// inputs must already be driven by a PI or a lower-indexed partition when
// its turn comes. With the map complete, phase 1 replays every cone into
// its own range concurrently: cross-partition edges are plain reads of the
// map.
//
// Phase 2 plays the role of a global strash table: nodes are processed
// level-synchronously, each batch resolves structural duplicates through
// hashtable.InsertMin — the minimum gid in a batch of duplicates wins, and a
// class that first appeared at an earlier level keeps its established
// winner — and trivial nodes are simplified against their finalized fanins
// exactly as NewAnd would have. A batch only needs every fanin to be final,
// so any labeling that grows along every edge will do: a node's level is
// its depth inside its own cone, plus a per-partition lift that puts the
// partition above every lower partition it reads. The winner policy is
// deterministic and independent of the worker count; the merged quotient
// graph (and therefore the compacted result, up to node renumbering) is
// what an in-order strash replay builds, because both merge every class of
// structurally identical nodes completely and apply the same trivial-node
// simplification.
// A cancelled ctx stops the merge, with ctx.Err(), within levelBatch levels.
func stitchParallel(ctx context.Context, base *aig.AIG, parts []*part, chosen []*aig.AIG, pool *gpu.Pool) (*aig.AIG, []int, error) {
	nPI := base.NumPIs()
	nParts := len(parts)

	offs := make([]int, nParts+1)
	offs[0] = 1 + nPI
	for i, c := range chosen {
		offs[i+1] = offs[i] + c.NumAnds()
	}
	totalLen := offs[nParts]

	boundary := pLitPool.Get(base.NumObjs())
	defer pLitPool.Put(boundary)
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

	f0s := pLitPool.Get(totalLen)
	f1s := pLitPool.Get(totalLen)
	remap := pLitPool.Get(totalLen)
	level := pI32Pool.GetZeroed(totalLen)
	defer func() {
		pLitPool.Put(f0s)
		pLitPool.Put(f1s)
		pLitPool.Put(remap)
		pI32Pool.Put(level)
	}()
	for v := 0; v <= nPI; v++ {
		remap[v] = aig.MakeLit(int32(v), false)
	}

	// Phase 1: parallel concatenation. Each partition translates its cone
	// into its reserved gid range and labels it with cone-local levels; gids
	// below the range (PIs, lower partitions) count as level 0 and are never
	// read here, since their owners are writing them.
	partMaxLev := make([]int32, nParts)
	tasks := make([]func(), nParts)
	for pi := range parts {
		pi, c, m := pi, chosen[pi], maps[pi]
		tasks[pi] = func() {
			lo := m.lo
			localLev := func(g aig.Lit) int32 {
				if v := g.Var(); v >= lo {
					return level[v]
				}
				return 0
			}
			gid, maxLev := lo, int32(0)
			for id := int32(c.NumPIs() + 1); int(id) < c.NumObjs(); id++ {
				g0, g1 := m.lit(c.Fanin0(id)), m.lit(c.Fanin1(id))
				f0s[gid], f1s[gid] = g0, g1
				lev := localLev(g0)
				if l1 := localLev(g1); l1 > lev {
					lev = l1
				}
				lev++
				level[gid] = lev
				if lev > maxLev {
					maxLev = lev
				}
				gid++
			}
			partMaxLev[pi] = maxLev
		}
	}
	pool.Execute(tasks)

	// Lift each partition above the lower partitions it reads.
	lift := make([]int32, nParts)
	maxLev := int32(0)
	tasks = tasks[:0]
	for pi, p := range parts {
		for _, in := range p.inputs {
			if v := int(boundary[in].Var()); v > nPI {
				q := sort.SearchInts(offs, v+1) - 1 // the partition whose range holds v
				if lift[q]+partMaxLev[q] > lift[pi] {
					lift[pi] = lift[q] + partMaxLev[q]
				}
			}
		}
		if top := lift[pi] + partMaxLev[pi]; top > maxLev {
			maxLev = top
		}
		if by, own := lift[pi], level[offs[pi]:offs[pi+1]]; by > 0 {
			tasks = append(tasks, func() {
				for i := range own {
					own[i] += by
				}
			})
		}
	}
	pool.Execute(tasks)

	// Bucket gids by level (counting sort keeps gid order within a level, so
	// batches are deterministic).
	nNodes := totalLen - (1 + nPI)
	order := pI32Pool.Get(nNodes)
	defer pI32Pool.Put(order)
	start := make([]int, maxLev+2)
	for gid := 1 + nPI; gid < totalLen; gid++ {
		start[level[gid]+1]++
	}
	for l := 1; l <= int(maxLev); l++ {
		start[l+1] += start[l]
	}
	fill := make([]int, maxLev+1)
	copy(fill, start[:maxLev+1])
	for gid := 1 + nPI; gid < totalLen; gid++ {
		l := level[gid]
		order[fill[l]] = int32(gid)
		fill[l]++
	}

	ht := hashtable.Acquire(nNodes + 16)
	defer hashtable.Release(ht)

	// Phase 2: level-synchronous merge. Pass A finalizes each node's fanins
	// against the remap of the levels below, simplifies trivial nodes, and
	// registers survivors in the merge table under their rank in order; pass
	// B resolves every node to its class winner. The minimum rank is the
	// minimum gid of the earliest level the class appeared at, so a later
	// duplicate never displaces a winner that nodes have already resolved
	// to. Pass A is idempotent (InsertMin is monotone), so a full table
	// retries the batch after a rehash, like the dedup pass.
	for lev := int32(1); lev <= maxLev; lev++ {
		if lev%levelBatch == 0 {
			if err := alive(ctx); err != nil {
				return nil, nil, err
			}
		}
		first := start[lev]
		batch := order[first:start[lev+1]]
		if len(batch) == 0 {
			continue
		}
		for {
			var full atomic.Bool
			chunked(pool, len(batch), func(lo, hi int) {
				for i, gid := range batch[lo:hi] {
					l0 := f0s[gid]
					l1 := f1s[gid]
					g0 := remap[l0.Var()].NotCond(l0.IsCompl())
					g1 := remap[l1.Var()].NotCond(l1.IsCompl())
					if lit, ok := aig.SimplifyAnd(g0, g1); ok {
						remap[gid] = lit // trivial: no table entry
						continue
					}
					if g0 > g1 {
						g0, g1 = g1, g0
					}
					f0s[gid], f1s[gid] = g0, g1
					remap[gid] = unresolved
					if err := ht.InsertMin(aig.Key(g0, g1), uint32(first+lo+i)); err != nil {
						full.Store(true)
						return
					}
				}
			})
			if !full.Load() {
				break
			}
			ht.Rehash(2*ht.Len() + len(batch))
		}
		chunked(pool, len(batch), func(lo, hi int) {
			for _, gid := range batch[lo:hi] {
				if remap[gid] != unresolved {
					continue // trivial, remapped in pass A
				}
				r, ok := ht.Query(aig.Key(f0s[gid], f1s[gid]))
				if !ok {
					panic("partition: merge table lost a key")
				}
				remap[gid] = aig.MakeLit(order[r], false)
			}
		})
	}

	// Final replay: winners only, in level order (a winner's finalized
	// fanins may carry a numerically higher gid from an earlier level, so id
	// order is not topological here). No hashing — the merge already
	// guaranteed uniqueness — and Compact drops the replay leftovers.
	gmap := pLitPool.Get(totalLen)
	defer pLitPool.Put(gmap)
	for v := 0; v <= nPI; v++ {
		gmap[v] = aig.MakeLit(int32(v), false)
	}
	out := aig.NewCap(nPI, totalLen)
	for _, gid := range order[:nNodes] {
		if remap[gid] != aig.MakeLit(gid, false) {
			continue // merged or simplified away
		}
		o0 := gmap[f0s[gid].Var()].NotCond(f0s[gid].IsCompl())
		o1 := gmap[f1s[gid].Var()].NotCond(f1s[gid].IsCompl())
		gmap[gid] = out.AddAndUnchecked(o0, o1)
	}
	for _, g := range poGlobal {
		r := remap[g.Var()].NotCond(g.IsCompl())
		out.AddPO(gmap[r.Var()].NotCond(r.IsCompl()))
	}
	final, _ := out.Compact()
	final.Name = base.Name

	// A node that did not survive as itself was broken at the seam.
	conflicts := make([]int, nParts)
	for pi := range parts {
		for gid := offs[pi]; gid < offs[pi+1]; gid++ {
			if remap[gid] != aig.MakeLit(int32(gid), false) {
				conflicts[pi]++
			}
		}
	}
	return final, conflicts, nil
}
