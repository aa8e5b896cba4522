// Package balance implements AND-balancing for delay optimization
// (Section IV of the paper).
//
// Sequential is the ABC-style recursive algorithm: clusters of single-fanout,
// non-complemented AND nodes are collapsed into n-input AND gates whose
// (recursively balanced) inputs are recombined in a delay-optimal order.
// Parallel is the paper's reformulation: the collapse and reconstruction
// steps are separated, subtrees are identified in parallel, and
// reconstruction proceeds level-wise from PIs to POs with synchronous
// insertion passes through the concurrent hash table — one new node per
// subtree per pass. Property 3 guarantees both produce the same delays.
package balance

import (
	"slices"

	"aigre/internal/aig"
)

// Stats reports one balancing pass.
type Stats struct {
	Subtrees    int
	NodesBefore int
	NodesAfter  int
}

// item is one pending input of a subtree under reconstruction.
type item struct {
	delay int32
	lit   aig.Lit
}

// combineInputs reduces a set of balanced inputs to a single literal by
// iteratively ANDing the two smallest-delay items (Huffman-style), creating
// nodes through mk. It assumes inputs has already been deduplicated. h is
// caller-owned heap scratch, rebound to inputs in place so the per-subtree
// heap costs no allocation.
func combineInputs(inputs []item, h *itemHeap, mk func(f0, f1 aig.Lit) aig.Lit) item {
	h.s = inputs
	h.heapify()
	for h.len() > 1 {
		a := h.pop()
		b := h.pop()
		lit := mk(a.lit, b.lit)
		h.push(item{delay: max32(a.delay, b.delay) + 1, lit: lit})
	}
	return h.pop()
}

// normalizeInputs removes duplicate literals and detects complementary
// pairs and constants in an n-input AND's balanced inputs. When the product
// collapses to a single literal or constant, it returns (nil, that item,
// true).
func normalizeInputs(items []item) ([]item, item, bool) {
	slices.SortFunc(items, func(a, b item) int {
		if a.lit < b.lit {
			return -1
		}
		if a.lit > b.lit {
			return 1
		}
		return 0
	})
	out := items[:0]
	for _, it := range items {
		if it.lit == aig.ConstTrue {
			continue // neutral element
		}
		if it.lit == aig.ConstFalse {
			return nil, item{lit: aig.ConstFalse}, true
		}
		if n := len(out); n > 0 {
			if out[n-1].lit == it.lit {
				continue // x & x = x
			}
			if out[n-1].lit == it.lit.Not() {
				return nil, item{lit: aig.ConstFalse}, true // x & !x = 0
			}
		}
		out = append(out, it)
	}
	if len(out) == 0 {
		return nil, item{lit: aig.ConstTrue}, true // empty product
	}
	if len(out) == 1 {
		return nil, out[0], true
	}
	return out, item{}, false
}

// gatherSubtree collects the n-ary AND inputs of the subtree rooted at
// root: expansion follows non-complemented edges into single-fanout AND
// nodes; everything else becomes an input (Section IV-A). stack is reusable
// traversal scratch; the (possibly grown) stack is returned for reuse.
func gatherSubtree(a *aig.AIG, refs []int32, root int32, out []aig.Lit, stack []int32) ([]aig.Lit, []int32) {
	stack = append(stack[:0], root)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range [2]aig.Lit{a.Fanin0(n), a.Fanin1(n)} {
			v := f.Var()
			if !f.IsCompl() && a.IsAnd(v) && refs[v] == 1 {
				stack = append(stack, v)
			} else {
				out = append(out, f)
			}
		}
	}
	return out, stack
}

// Sequential balances the AIG with the ABC algorithm (implemented
// iteratively to tolerate very deep networks) and returns a freshly built
// network.
func Sequential(a *aig.AIG) (*aig.AIG, Stats) {
	st := Stats{NodesBefore: a.NumAnds()}
	refs := a.FanoutCounts()
	out := aig.NewCap(a.NumPIs(), a.NumObjs())
	out.Name = a.Name
	out.EnableStrash()

	memo := make([]item, a.NumObjs())
	done := make([]bool, a.NumObjs())
	done[0] = true // const maps to const (lit 0, delay 0)
	for i := 1; i <= a.NumPIs(); i++ {
		memo[i] = item{lit: aig.MakeLit(int32(i), false)}
		done[i] = true
	}

	type frame struct {
		id   int32
		raw  []aig.Lit // subtree inputs (original literals)
		next int       // inputs resolved so far
	}
	// Allocation discipline: balancing visits ~one subtree per AND node, and
	// a fresh raw slice, item slice, heap box, and NewAnd method value per
	// subtree made this loop the dominant allocation site of the whole
	// partition-parallel flow (~84% of allocs/op on the million-node bench).
	// raw slices cycle through a freelist (frames at different depths hold
	// theirs concurrently), while the item buffer and heap are singletons —
	// only the top frame reduces at any moment, and nothing retains them.
	var stack []frame
	var gstack []int32
	var rawFree [][]aig.Lit
	var itemsBuf []item
	var heap itemHeap
	mk := out.NewAnd
	balance := func(root int32) item {
		if done[root] {
			return memo[root]
		}
		stack = append(stack[:0], frame{id: root})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.raw == nil {
				st.Subtrees++
				raw := []aig.Lit(nil)
				if n := len(rawFree); n > 0 {
					raw = rawFree[n-1][:0]
					rawFree = rawFree[:n-1]
				} else {
					raw = make([]aig.Lit, 0, 8)
				}
				f.raw, gstack = gatherSubtree(a, refs, f.id, raw, gstack)
			}
			// Resolve remaining inputs, descending where needed.
			descended := false
			for f.next < len(f.raw) {
				v := f.raw[f.next].Var()
				if !done[v] {
					stack = append(stack, frame{id: v})
					descended = true
					break
				}
				f.next++
			}
			if descended {
				continue
			}
			itemsBuf = itemsBuf[:0]
			for _, rl := range f.raw {
				m := memo[rl.Var()]
				itemsBuf = append(itemsBuf, item{delay: m.delay, lit: m.lit.NotCond(rl.IsCompl())})
			}
			reduced, single, collapsed := normalizeInputs(itemsBuf)
			var res item
			if collapsed {
				res = single
			} else {
				res = combineInputs(reduced, &heap, mk)
			}
			memo[f.id] = res
			done[f.id] = true
			rawFree = append(rawFree, f.raw)
			stack = stack[:len(stack)-1]
		}
		return memo[root]
	}

	for _, p := range a.POs() {
		m := balance(p.Var())
		out.AddPO(m.lit.NotCond(p.IsCompl()))
	}
	final, _ := out.Compact()
	out.ReleaseStrash()
	st.NodesAfter = final.NumAnds()
	return final, st
}

func max32(x, y int32) int32 {
	if x > y {
		return x
	}
	return y
}
