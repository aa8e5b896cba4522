package cut

// 4-feasible cut enumeration, the front end of rewriting.

import (
	"slices"

	"aigre/internal/aig"
)

// Set4 is a cut's leaf ids, ascending and distinct, padded with -1: two sets
// are equal exactly when the arrays are.
type Set4 [4]int32

var noLeaves = Set4{-1, -1, -1, -1}

// Leaves returns the set's ids as a slice into c.
func (c *Set4) Leaves() []int32 {
	n := 4
	for n > 0 && c[n-1] < 0 {
		n--
	}
	return c[:n]
}

// expand returns the set with the leaf at index i replaced by f0 and f1 (the
// fanins of that leaf), by a sorted merge that drops duplicates; ok is false
// when the result would have more than four leaves.
func (c *Set4) expand(i int, f0, f1 int32) (out Set4, ok bool) {
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

// Cuts4 enumerates the 4-feasible cuts of AND node n on the current graph by
// breadth-first leaf expansion from its fanins, capped at maxCuts: the
// trivial cut, cuts with a constant leaf and single-leaf cuts are left out.
// The graph may be mid-edit (deleted nodes, ids out of topological order).
// This is the one 4-cut enumerator: both rewriting engines run it. The
// returned sets are owned by the scratch and valid until its next Cuts4 call.
func (s *Scratch) Cuts4(a *aig.AIG, n int32, maxCuts int) []Set4 {
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
		for i, v := range cur.Leaves() {
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

// Cut4 is a cut rewriting evaluates, with the 16-bit truth table of its root
// over its leaves (leaf i is variable i). TT is the ConeTruth16 walk: the
// cone from the root down to the leaves, each leaf an independent variable,
// so it agrees with the circuit on every realizable leaf assignment.
type Cut4 struct {
	Leaves Set4
	TT     uint16
}

// EnumCuts4 lists, for every AND node of a, the cuts rewriting evaluates on
// it: Cuts4's sets whose ConeTruth16 walk succeeds, in Cuts4's order, at most
// maxCuts of them. cuts[id] is nil for the constant, the PIs and deleted
// nodes. Kept for the frozen benchmark harness, whose cut.enum4 probe calls
// it; rewriting calls Cuts4 itself.
func EnumCuts4(a *aig.AIG, maxCuts int) [][]Cut4 {
	var s Scratch
	cuts := make([][]Cut4, a.NumObjs())
	a.ForEachAnd(func(id int32) {
		for _, c := range s.Cuts4(a, id, maxCuts) {
			if tt, ok := s.ConeTruth16(a, aig.MakeLit(id, false), c.Leaves()); ok {
				cuts[id] = append(cuts[id], Cut4{Leaves: c, TT: tt})
			}
		}
	})
	return cuts
}
