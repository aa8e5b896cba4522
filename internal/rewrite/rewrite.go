package rewrite

import (
	"slices"
	"sync"

	"aigre/internal/aig"
	"aigre/internal/core"
	"aigre/internal/cut"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
)

// Options controls both engines.
type Options struct {
	// ZeroGain accepts replacements that do not reduce the node count
	// (ABC's rwz / the paper's modified [9]).
	ZeroGain bool
	// Cache memoizes NPN canonization (768 transforms per miss) across
	// passes and runs (nil = the process-wide rcache.Default).
	Cache *rcache.Cache
}

// maxCutsPerNode bounds the local cut enumeration.
const maxCutsPerNode = 8

func (o Options) normalized() Options {
	if o.Cache == nil {
		o.Cache = rcache.Default
	}
	return o
}

// Stats reports one rewriting pass.
type Stats struct {
	NodesConsidered int
	NodesRewritten  int
	NodesBefore     int
	NodesAfter      int
}

// evalScratch bundles the reusable working memory of one evaluation worker:
// cut enumeration storage, cone-truth stamps, and MFFC/dry-run stamps.
// In steady state a node evaluation allocates nothing. The parallel kernel
// holds one per worker slot for the whole launch.
type evalScratch struct {
	cs cut.Scratch
	es core.EvalScratch

	queue []leafSet // leaf sets reached from the current node, in order
	seen  []leafSet // the distinct ones dequeued so far (a dozen at most)
	cuts  []leafSet // the accepted ones, reused across nodes

	// NPN cache outcomes not yet added to the cache's shared counters.
	npnHits, npnMisses int64
}

// flushNpn adds the pending NPN outcomes to c's counters. The host calls it
// once per slot after the evaluation launch, and the sequential engine once
// per pass, so no evaluation thread writes the shared counters at all; a
// scratch goes back to the pool flushed.
func (s *evalScratch) flushNpn(c *rcache.Cache) {
	c.AddNpn(s.npnHits, s.npnMisses)
	s.npnHits, s.npnMisses = 0, 0
}

var scratchPool = sync.Pool{
	New: func() any { return new(evalScratch) },
}

// leafSet is a cut's leaf ids, ascending and distinct, padded with -1: two
// sets are equal exactly when the arrays are.
type leafSet [4]int32

var noLeaves = leafSet{-1, -1, -1, -1}

// leaves returns the set's ids as a slice into c.
func (c *leafSet) leaves() []int32 {
	n := 4
	for n > 0 && c[n-1] < 0 {
		n--
	}
	return c[:n]
}

// expand returns the set with the leaf at index i replaced by f0 and f1 (the
// fanins of that leaf), by a sorted merge that drops duplicates; ok is false
// when the result would have more than four leaves.
func (c *leafSet) expand(i int, f0, f1 int32) (out leafSet, ok bool) {
	if f0 > f1 {
		f0, f1 = f1, f0
	}
	pair, np := [2]int32{f0, f1}, 2
	if f0 == f1 {
		np = 1
	}
	out = noLeaves
	for j, k, n := 0, 0, 0; ; n++ {
		if j == i {
			j++
		}
		var x int32
		switch {
		case j < 4 && c[j] >= 0 && (k == np || c[j] <= pair[k]):
			x = c[j]
			if k < np && pair[k] == x {
				k++
			}
			j++
		case k < np:
			x = pair[k]
			k++
		default:
			return out, true
		}
		if n == 4 {
			return out, false
		}
		out[n] = x
	}
}

// enumLocalCuts enumerates 4-feasible cuts of n on the current graph by
// breadth-first leaf expansion (the trivial cut excluded), capped at maxCuts.
// The returned sets are owned by the scratch and valid until its next call.
func enumLocalCuts(a *aig.AIG, n int32, maxCuts int, s *evalScratch) []leafSet {
	first, _ := noLeaves.expand(-1, a.Fanin0(n).Var(), a.Fanin1(n).Var())
	s.queue = append(s.queue[:0], first)
	s.seen = s.seen[:0]
	s.cuts = s.cuts[:0]
	for head := 0; head < len(s.queue) && len(s.cuts) < maxCuts; head++ {
		cur := s.queue[head]
		if slices.Contains(s.seen, cur) {
			continue
		}
		s.seen = append(s.seen, cur)
		if cur[0] != 0 && cur[1] >= 0 { // no constant leaf, at least two leaves
			s.cuts = append(s.cuts, cur)
		}
		// Expand each AND leaf.
		for i, v := range cur.leaves() {
			if !a.IsAnd(v) {
				continue
			}
			if next, ok := cur.expand(i, a.Fanin0(v).Var(), a.Fanin1(v).Var()); ok {
				s.queue = append(s.queue, next)
			}
		}
	}
	return s.cuts
}

// candidate is the best rewriting found for a node. It holds no pointer:
// the program is looked up again by canon when the candidate is applied, so
// the kernel's per-node candidate array is plain memory the collector skips.
type candidate struct {
	leaves leafSet
	mapped [4]aig.Lit
	tt     uint16 // cut function (padded to 4 vars), for revalidation
	canon  uint16 // its NPN class: DefaultLibrary key of the program
	outNeg bool
	gain   int32
}

// prog returns the candidate's program with the output complement folded in.
func (c *candidate) prog() core.Program {
	p, _ := DefaultLibrary.Best(c.canon)
	return progWithOutput(p, c.outNeg)
}

// evaluateNode finds the best library-based rewriting of node n on the
// current graph. Requires live fanout counts on a. Returns ok=false when no
// cut yields acceptable gain.
func evaluateNode(a *aig.AIG, n int32, opts Options, s *evalScratch) (candidate, bool, int64) {
	var best candidate
	found := false
	cuts := enumLocalCuts(a, n, maxCutsPerNode, s)
	// Cut enumeration explores roughly a handful of expansions per kept cut.
	ops := int64(1 + 20*len(cuts))
	for i := range cuts {
		leaves := cuts[i].leaves()
		tt16, ok := s.cs.ConeTruth16(a, aig.MakeLit(n, false), leaves)
		if !ok {
			continue
		}
		ops += int64(30 + 4*len(leaves))
		padded := pad16(tt16, len(leaves))
		canon, tr, hit := opts.Cache.Npn4Uncounted(padded)
		if hit {
			s.npnHits++
		} else {
			s.npnMisses++
		}
		prog, _ := DefaultLibrary.Best(canon)
		mapped, outNeg := mapLeaves(leaves, tr)
		members := s.es.MffcMembers(a, n, leaves)
		gain := int32(len(members) - s.es.DryRunCost(a, progWithOutput(prog, outNeg), mapped[:]))
		ops += int64(2*len(prog.Ops) + len(members))
		if !found || gain > best.gain {
			best = candidate{
				leaves: cuts[i],
				mapped: mapped,
				tt:     padded,
				canon:  canon,
				outNeg: outNeg,
				gain:   gain,
			}
			found = true
		}
	}
	if !found {
		return candidate{}, false, ops
	}
	if best.gain < 0 || (best.gain == 0 && !opts.ZeroGain) {
		return candidate{}, false, ops
	}
	return best, true, ops
}

// progWithOutput folds the output complement into the program root.
func progWithOutput(p core.Program, neg bool) core.Program {
	if !neg {
		return p
	}
	return core.Program{Ops: p.Ops, Root: p.Root.Not()}
}

// pad16 replicates the meaningful low bits of a k-variable table (k <= 4)
// across the full 16-bit 4-variable representation.
func pad16(w uint16, k int) uint16 {
	switch k {
	case 0:
		w &= 1
		w |= w << 1
		fallthrough
	case 1:
		w &= 3
		w |= w << 2
		fallthrough
	case 2:
		w &= 0xF
		w |= w << 4
		fallthrough
	case 3:
		w &= 0xFF
		w |= w << 8
	}
	return w
}

// applyCandidate validates cand against the current graph and applies it in
// place. Returns whether the node was rewritten.
func applyCandidate(work *aig.AIG, n int32, cand *candidate, opts Options, revalidate bool, s *evalScratch) bool {
	if work.IsDeleted(n) {
		return false
	}
	leaves := cand.leaves.leaves()
	for _, l := range leaves {
		if work.IsDeleted(l) {
			return false
		}
	}
	prog := cand.prog()
	if revalidate {
		// The graph may have changed since evaluation: check the cut still
		// bounds the cone and computes the same function, and recompute the
		// gain (the on-the-fly re-evaluation of [9]).
		tt16, ok := s.cs.ConeTruth16(work, aig.MakeLit(n, false), leaves)
		if !ok || pad16(tt16, len(leaves)) != cand.tt {
			return false
		}
		members := s.es.MffcMembers(work, n, leaves)
		gain := len(members) - s.es.DryRunCost(work, prog, cand.mapped[:])
		if gain < 0 || (gain == 0 && !opts.ZeroGain) {
			return false
		}
	}
	newRoot, ok := s.es.BuildProgramAvoiding(work, prog, cand.mapped[:], n)
	if !ok || newRoot.Var() == n {
		return false
	}
	work.ReplaceNode(n, newRoot)
	return true
}

// Sequential runs one pass of ABC-style DAG-aware rewriting (drw; drw -z
// with ZeroGain).
func Sequential(a *aig.AIG, opts Options) (*aig.AIG, Stats) {
	opts = opts.normalized()
	st := Stats{NodesBefore: a.NumAnds()}
	s := scratchPool.Get().(*evalScratch)
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		return func(id int32) {
			st.NodesConsidered++
			cand, ok, _ := evaluateNode(work, id, opts, s)
			if ok && applyCandidate(work, id, &cand, opts, false, s) {
				st.NodesRewritten++
			}
		}
	})
	s.flushNpn(opts.Cache)
	scratchPool.Put(s)
	st.NodesAfter = out.NumAnds()
	return out, st
}

// Parallel runs one pass of GPU rewriting in the style of [9]: the cut
// evaluation of all nodes runs as a device kernel; the replacement step is
// sequential on the host (accounted as sequential time — the Table I
// baseline) with on-the-fly re-evaluation; duplicates left behind are
// handled by the caller's dedup pass (Section III-F).
func Parallel(d *gpu.Device, a *aig.AIG, opts Options) (*aig.AIG, Stats) {
	opts = opts.normalized()
	st := Stats{NodesBefore: a.NumAnds()}
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		// Parallel evaluation kernel: one thread per AND node.
		nodes := make([]int32, 0, work.NumAnds())
		work.ForEachAnd(func(id int32) { nodes = append(nodes, id) })
		cands := make([]candidate, len(nodes))
		oks := make([]bool, len(nodes))
		// One scratch per worker slot, taken from the pool once per launch.
		slots := make([]*evalScratch, d.Workers())
		for i := range slots {
			slots[i] = scratchPool.Get().(*evalScratch)
		}
		d.LaunchSlots("rewrite/evaluate", len(nodes), func(slot, tid int) int64 {
			cand, ok, ops := evaluateNode(work, nodes[tid], opts, slots[slot])
			cands[tid] = cand
			oks[tid] = ok
			return ops
		})
		for _, s := range slots[1:] {
			s.flushNpn(opts.Cache)
			scratchPool.Put(s)
		}
		st.NodesConsidered = len(nodes)

		// Sequential replacement with re-evaluation (the data-race-avoiding
		// step of [9]), on slot 0's scratch; accounted as host-sequential time.
		s := slots[0]
		s.flushNpn(opts.Cache)
		defer scratchPool.Put(s)
		var seqOps int64
		for i, id := range nodes {
			seqOps += 2
			if !oks[i] {
				continue
			}
			// Re-evaluation (cone truth, MFFC, dry run) plus the replacement
			// itself are host-sequential work in [9].
			nops := int64(len(cands[i].prog().Ops))
			seqOps += 40 + 3*nops
			if applyCandidate(work, id, &cands[i], opts, true, s) {
				st.NodesRewritten++
				seqOps += 2*nops + 16
			}
		}
		d.AddOverhead("rewrite/seq-replace", seqOps)
		return nil
	})
	st.NodesAfter = out.NumAnds()
	return out, st
}
