// Package cut provides cut computation on AIGs: the reconvergence-driven
// large cuts used by (sequential) refactoring and resubstitution, cone
// truth-table evaluation over reusable scratch memory, and 4-feasible cut
// enumeration with truth tables for rewriting.
package cut

import "aigre/internal/aig"

// Reconv computes reconvergence-driven cuts (ABC-style): starting from the
// trivial cut {root}, it repeatedly expands the leaf whose replacement by
// its fanins increases the cut size least, stopping when every possible
// expansion would exceed maxLeaves. A Reconv value amortizes scratch memory
// across calls; it is not safe for concurrent use.
type Reconv struct {
	a      *aig.AIG
	travID int32
	trav   []int32 // node id -> last traversal id that visited it
	leaves []int32
}

// NewReconv creates a cut computer for a.
func NewReconv(a *aig.AIG) *Reconv {
	return &Reconv{a: a, trav: make([]int32, a.NumObjs())}
}

func (r *Reconv) visited(id int32) bool { return r.trav[id] == r.travID }
func (r *Reconv) visit(id int32)        { r.trav[id] = r.travID }

// Cut returns the leaves of a reconvergence-driven cut of root with at most
// maxLeaves leaves. The returned slice is reused by the next call.
func (r *Reconv) Cut(root int32, maxLeaves int) []int32 {
	if n := r.a.NumObjs(); n > len(r.trav) {
		// The AIG has grown since the last call (in-place editing): grow
		// geometrically, so a pass of single-node growths reallocates
		// O(log n) times. Fresh zeroed stamps; travID restarts above them.
		r.trav = make([]int32, max(n, 2*len(r.trav)))
		r.travID = 0
	}
	r.travID++
	r.leaves = r.leaves[:0]
	r.leaves = append(r.leaves, root)
	r.visit(root)
	for {
		best := -1
		bestCost := 3
		for i, leaf := range r.leaves {
			if !r.a.IsAnd(leaf) {
				continue
			}
			cost := r.expandCost(leaf)
			if cost < bestCost {
				bestCost = cost
				best = i
				if cost == 0 {
					break
				}
			}
		}
		if best < 0 || len(r.leaves)+bestCost > maxLeaves {
			break // no expandable leaf, or expansion would exceed the limit
		}
		r.expand(best)
	}
	return r.leaves
}

// expandCost returns how many new leaves replacing leaf by its fanins adds
// (-1, 0 or +1).
func (r *Reconv) expandCost(leaf int32) int {
	cost := -1
	for _, f := range [2]aig.Lit{r.a.Fanin0(leaf), r.a.Fanin1(leaf)} {
		if !r.visited(f.Var()) {
			cost++
		}
	}
	return cost
}

// expand replaces leaves[i] by its unvisited fanins.
func (r *Reconv) expand(i int) {
	leaf := r.leaves[i]
	r.leaves[i] = r.leaves[len(r.leaves)-1]
	r.leaves = r.leaves[:len(r.leaves)-1]
	for _, f := range [2]aig.Lit{r.a.Fanin0(leaf), r.a.Fanin1(leaf)} {
		v := f.Var()
		if !r.visited(v) {
			r.visit(v)
			r.leaves = append(r.leaves, v)
		}
	}
}
