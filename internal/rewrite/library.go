// Package rewrite implements DAG-aware AIG rewriting with 4-input cuts and
// an NPN-canonical subgraph library.
//
// Sequential is the ABC-style baseline (drw): nodes are visited in
// topological order, 4-feasible cuts are enumerated, each cut function is
// looked up in the library, and the best replacement is applied immediately
// when its DAG-aware gain is acceptable. Parallel follows the earlier GPU
// rewriting work [9] that the paper integrates for its full-GPU resyn2: the
// evaluation of all nodes runs in parallel on the device, while the
// replacement step remains sequential (the paper's Table I baseline), and a
// de-duplication pass cleans up afterwards.
package rewrite

import (
	"sync/atomic"

	"aigre/internal/aig"
	"aigre/internal/core"
	"aigre/internal/factor"
	"aigre/internal/truth"
)

// Library maps canonical NPN classes of 4-variable functions to optimized
// implementations. ABC ships a precomputed library; this one is synthesized
// on first use per class (best of ISOP-factoring and Shannon/mux
// decomposition) — see DESIGN.md for the substitution note.
//
// The library is a dense table indexed by the canonical 16-bit function
// (512 KB of pointers, 222 of them ever non-nil). An entry is published once
// with a compare-and-swap and never changes afterwards, so a lookup is one
// atomic load: no lock, no map, nothing written on the hit path.
type Library struct {
	entries [1 << 16]atomic.Pointer[libEntry]
	size    atomic.Int32
}

type libEntry struct {
	prog core.Program // over the canonical function's 4 variables
	cost int          // AND nodes without sharing
}

// NewLibrary creates an empty lazily-filled library.
func NewLibrary() *Library { return new(Library) }

// DefaultLibrary is the process-wide shared library (classes accumulate
// across passes, like ABC's static rewriting data).
var DefaultLibrary = NewLibrary()

// Best returns an implementation program and its node cost for the
// canonical function canon. Safe for concurrent use: when several callers
// synthesize a missing class at once the first to publish wins and all of
// them return the published entry.
func (l *Library) Best(canon uint16) (core.Program, int) {
	slot := &l.entries[canon]
	e := slot.Load()
	if e == nil {
		prog, cost := synthesize(canon)
		e = &libEntry{prog, cost}
		if slot.CompareAndSwap(nil, e) {
			l.size.Add(1)
		} else {
			e = slot.Load()
		}
	}
	return e.prog, e.cost
}

// Size returns the number of cached classes.
func (l *Library) Size() int { return int(l.size.Load()) }

// synthesize builds the best known implementation of a 4-variable function:
// the cheaper of the algebraically factored form and a Shannon (mux)
// decomposition.
func synthesize(tt uint16) (core.Program, int) {
	ft := factoredTree(tt)
	st := shannonTree(tt)
	best := ft
	if st.NumAnds() < ft.NumAnds() {
		best = st
	}
	prog := core.Linearize(best, false)
	return prog, best.NumAnds()
}

// to4 converts a 16-bit table to the truth package representation.
func to4(tt uint16) truth.TT {
	t := truth.New(4)
	t.Words[0] = uint64(tt) | uint64(tt)<<16 | uint64(tt)<<32 | uint64(tt)<<48
	return t
}

// factoredTree returns the min-phase factored form of tt as a tree
// implementing tt exactly (complement folded in).
func factoredTree(tt uint16) *factor.Tree {
	tree, compl := factor.FactorTT(to4(tt))
	if compl {
		tree = notTree(tree)
	}
	return tree
}

// notTree complements a factored tree by De Morgan push-down on single
// literals/constants, or by wrapping: since factored trees have no NOT node,
// complement the root by rebuilding from the complement function when
// needed. For simplicity the complement is realized at the leaf level when
// the tree is a literal or constant, and otherwise by factoring the
// complement function directly.
func notTree(t *factor.Tree) *factor.Tree {
	switch t.Kind {
	case factor.KindConst0:
		return &factor.Tree{Kind: factor.KindConst1}
	case factor.KindConst1:
		return &factor.Tree{Kind: factor.KindConst0}
	case factor.KindLit:
		return &factor.Tree{Kind: factor.KindLit, Var: t.Var, Neg: !t.Neg}
	}
	// De Morgan: complement an AND into an OR of complements and vice versa.
	cs := make([]*factor.Tree, len(t.Children))
	for i, c := range t.Children {
		cs[i] = notTree(c)
	}
	kind := factor.KindAnd
	if t.Kind == factor.KindAnd {
		kind = factor.KindOr
	}
	return &factor.Tree{Kind: kind, Children: cs}
}

// shannonTree decomposes tt by recursive Shannon expansion on the best
// variable, producing a mux tree. Memoization would require a shared cache;
// depth is at most 4, so recomputation is cheap.
func shannonTree(tt uint16) *factor.Tree {
	switch tt {
	case 0:
		return &factor.Tree{Kind: factor.KindConst0}
	case 0xFFFF:
		return &factor.Tree{Kind: factor.KindConst1}
	}
	f := to4(tt)
	// Literal?
	for v := 0; v < 4; v++ {
		vt := truth.Var(4, v)
		if f.Equal(vt) {
			return &factor.Tree{Kind: factor.KindLit, Var: v}
		}
		if truth.New(4).Not(vt).Equal(f) {
			return &factor.Tree{Kind: factor.KindLit, Var: v, Neg: true}
		}
	}
	bestVar, bestCost := -1, 1<<30
	var bestT0, bestT1 *factor.Tree
	for v := 0; v < 4; v++ {
		if !f.DependsOn(v) {
			continue
		}
		c0 := truth.New(4).Cofactor0(f, v)
		c1 := truth.New(4).Cofactor1(f, v)
		t0 := shannonTree(ttOf(c0))
		t1 := shannonTree(ttOf(c1))
		cost := t0.NumAnds() + t1.NumAnds() + 3
		if cost < bestCost {
			bestVar, bestCost = v, cost
			bestT0, bestT1 = t0, t1
		}
	}
	// f = v*t1 + !v*t0
	v := &factor.Tree{Kind: factor.KindLit, Var: bestVar}
	nv := &factor.Tree{Kind: factor.KindLit, Var: bestVar, Neg: true}
	return &factor.Tree{Kind: factor.KindOr, Children: []*factor.Tree{
		{Kind: factor.KindAnd, Children: []*factor.Tree{v, bestT1}},
		{Kind: factor.KindAnd, Children: []*factor.Tree{nv, bestT0}},
	}}
}

func ttOf(t truth.TT) uint16 { return uint16(t.Words[0]) }

// mapLeaves computes the cut-leaf literals feeding the canonical program:
// canonical variable i reads original leaf Perm[i], complemented per
// InputNeg; the program root is complemented when OutputNeg.
func mapLeaves(leaves []int32, tr truth.Npn4Transform) (mapped [4]aig.Lit, outNeg bool) {
	for i := 0; i < 4; i++ {
		orig := int(tr.Perm[i])
		if orig < len(leaves) {
			neg := tr.InputNeg>>uint(orig)&1 != 0
			mapped[i] = aig.MakeLit(leaves[orig], neg)
		} else {
			mapped[i] = aig.ConstFalse // padding variable (function cannot depend on it)
		}
	}
	return mapped, tr.OutputNeg
}
