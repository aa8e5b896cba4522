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
	} else if c[3] >= 0 {
		// Four leaves keep three: two distinct fanins fit only if one of
		// them is already among those three.
		known := false
		for j, x := range c {
			known = known || j != i && (x == f0 || x == f1)
		}
		if !known {
			return out, false
		}
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
	canon  uint16 // NPN class of the cut function: DefaultLibrary key of the program
	outNeg bool
	gain   int32
}

// forApply returns the candidate for root n as core.Apply takes it: the
// library program, output complement folded in, over the mapped leaves.
func (c *candidate) forApply(n int32, zeroGain bool) core.Candidate {
	p, _ := DefaultLibrary.Best(c.canon)
	return core.Candidate{Root: n, Leaves: c.leaves.leaves(), Inputs: c.mapped[:],
		Prog: progWithOutput(p, c.outNeg), ZeroGain: zeroGain}
}

// evaluateNode finds the best library-based rewriting of node n on the
// current graph. Requires live fanout counts on a. Returns ok=false when no
// cut yields acceptable gain.
func evaluateNode(a *aig.AIG, n int32, opts Options, s *evalScratch) (candidate, bool, int64) {
	var best candidate
	found := false
	// need is the least gain a cut must reach to be kept: the pass threshold,
	// then one more than the best so far. The first cut with the largest
	// gain wins, so a cut short of need cannot, and its dry run stops as
	// soon as its cost shows that (or is skipped when its MFFC alone does).
	need := core.LeastGain(opts.ZeroGain)
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
		canon, tr, hit := opts.Cache.Npn4Uncounted(tt16)
		if hit {
			s.npnHits++
		} else {
			s.npnMisses++
		}
		prog, _ := DefaultLibrary.Best(canon)
		members := len(s.es.MffcMembers(a, n, leaves))
		ops += int64(2*len(prog.Ops) + members)
		if members < need {
			continue
		}
		mapped, outNeg := mapLeaves(leaves, tr)
		gain := members - s.es.DryRunCost(a, progWithOutput(prog, outNeg), mapped[:], members-need)
		if gain >= need {
			best = candidate{
				leaves: cuts[i],
				mapped: mapped,
				canon:  canon,
				outNeg: outNeg,
				gain:   int32(gain),
			}
			found = true
			need = gain + 1
		}
	}
	if !found {
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
			if !ok {
				return
			}
			if c := cand.forApply(id, opts.ZeroGain); s.es.Apply(work, &s.cs, &c, false) == core.Replaced {
				st.NodesRewritten++
			}
		}
	})
	s.flushNpn(opts.Cache)
	scratchPool.Put(s)
	st.NodesAfter = out.NumAnds()
	return out, st
}

// evaluate runs the evaluation kernel of Parallel: one device thread per AND
// node of work finds its best candidate on the unchanged graph. It returns
// the nodes in id order with their candidates (ok[i] when nodes[i] has one)
// and slot 0's scratch, flushed, for the host step; the caller puts it back.
func evaluate(d *gpu.Device, work *aig.AIG, opts Options) (nodes []int32, cands []candidate, ok []bool, s *evalScratch) {
	nodes = make([]int32, 0, work.NumAnds())
	work.ForEachAnd(func(id int32) { nodes = append(nodes, id) })
	cands = make([]candidate, len(nodes))
	ok = make([]bool, len(nodes))
	// One scratch per worker slot, taken from the pool once per launch.
	slots := make([]*evalScratch, d.Workers())
	for i := range slots {
		slots[i] = scratchPool.Get().(*evalScratch)
	}
	d.LaunchSlots("rewrite/evaluate", len(nodes), func(slot, tid int) int64 {
		cand, found, ops := evaluateNode(work, nodes[tid], opts, slots[slot])
		cands[tid] = cand
		ok[tid] = found
		return ops
	})
	for i, s := range slots {
		if s.flushNpn(opts.Cache); i > 0 {
			scratchPool.Put(s)
		}
	}
	return nodes, cands, ok, slots[0]
}

// Candidates returns the candidates Parallel's evaluation finds on work, in
// id order, for a caller that applies them itself (through core.Apply with
// revalidation, in any order). work must be EditInPlace's kind of copy.
func Candidates(d *gpu.Device, work *aig.AIG, opts Options) []core.Candidate {
	opts = opts.normalized()
	nodes, cands, ok, s := evaluate(d, work, opts)
	scratchPool.Put(s)
	var out []core.Candidate
	for i, id := range nodes {
		if ok[i] {
			out = append(out, cands[i].forApply(id, opts.ZeroGain))
		}
	}
	return out
}

// Parallel runs one pass of GPU rewriting in the style of [9]: the cut
// evaluation of all nodes runs as a device kernel; the replacement step is
// [9]'s host-sequential loop in id order (accounted as sequential time, the
// Table I baseline), each candidate revalidated against the edits before it
// by core.Apply, whose strash-aware ReplaceNode merges any duplicate a
// replacement makes, so the result needs no Section III-F pass.
func Parallel(d *gpu.Device, a *aig.AIG, opts Options) (*aig.AIG, Stats) {
	opts = opts.normalized()
	st := Stats{NodesBefore: a.NumAnds()}
	out := core.EditInPlace(a, func(work *aig.AIG) func(int32) {
		nodes, cands, ok, s := evaluate(d, work, opts)
		defer scratchPool.Put(s)
		st.NodesConsidered = len(nodes)
		var seqOps int64
		for i, id := range nodes {
			seqOps += 2
			if !ok[i] {
				continue
			}
			// Re-evaluation (cone truth, MFFC, dry run) plus the replacement
			// itself are host-sequential work in [9].
			c := cands[i].forApply(id, opts.ZeroGain)
			nops := int64(len(c.Prog.Ops))
			seqOps += 40 + 3*nops
			if s.es.Apply(work, &s.cs, &c, true) == core.Replaced {
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
