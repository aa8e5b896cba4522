// Package factor implements algebraic factoring of sum-of-products
// expressions in the style of MIS [12] (the "standard factoring procedure"
// the paper's refactoring uses to resynthesize cone functions). core.Linearize
// turns a factored form into the program the engines build in an AIG.
package factor

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"aigre/internal/truth"
)

// Kind discriminates factored-form tree nodes.
type Kind uint8

const (
	KindConst0 Kind = iota
	KindConst1
	KindLit
	KindAnd
	KindOr
)

// Tree is a factored-form expression tree. And/Or nodes are n-ary; Lit
// nodes name an input variable with an optional complement.
type Tree struct {
	Kind     Kind
	Var      int
	Neg      bool
	Children []*Tree
}

func lit(v int, neg bool) *Tree { return &Tree{Kind: KindLit, Var: v, Neg: neg} }

// nary builds an n-ary AND/OR node, collapsing the degenerate arities: a
// single child stands alone, an empty AND is constant true and an empty OR
// constant false.
func nary(k Kind, cs []*Tree) *Tree {
	switch len(cs) {
	case 0:
		if k == KindAnd {
			return &Tree{Kind: KindConst1}
		}
		return &Tree{Kind: KindConst0}
	case 1:
		return cs[0]
	}
	return &Tree{Kind: k, Children: cs}
}

// NumAnds returns the number of 2-input AND nodes needed to build the tree
// without any structural sharing: every n-ary AND/OR contributes n-1 nodes.
func (t *Tree) NumAnds() int {
	switch t.Kind {
	case KindAnd, KindOr:
		n := len(t.Children) - 1
		for _, c := range t.Children {
			n += c.NumAnds()
		}
		return n
	default:
		return 0
	}
}

func (t *Tree) String() string {
	switch t.Kind {
	case KindConst0:
		return "0"
	case KindConst1:
		return "1"
	case KindLit:
		if t.Neg {
			return fmt.Sprintf("!x%d", t.Var)
		}
		return fmt.Sprintf("x%d", t.Var)
	case KindAnd, KindOr:
		sep := "*"
		if t.Kind == KindOr {
			sep = " + "
		}
		s := "("
		for i, c := range t.Children {
			if i > 0 {
				s += sep
			}
			s += c.String()
		}
		return s + ")"
	}
	return "?"
}

// Factor computes a factored form of the SOP using the quick-divisor
// algebraic factoring algorithm (GFACTOR with ONE_LEVEL_0_KERNEL divisors).
func Factor(s truth.SOP) *Tree {
	if s.IsConst0() {
		return &Tree{Kind: KindConst0}
	}
	if s.IsConst1() {
		return &Tree{Kind: KindConst1}
	}
	return gfactor(s.Cubes)
}

// FactorTT computes the min-phase ISOP of tt and factors it, returning the
// tree and whether it implements the complement of tt.
func FactorTT(tt truth.TT) (*Tree, bool) {
	sop, compl := truth.MinPhaseISOP(tt)
	return Factor(sop), compl
}

func gfactor(f []truth.Cube) *Tree {
	if len(f) == 0 {
		return &Tree{Kind: KindConst0}
	}
	if len(f) == 1 {
		return cubeTree(f[0])
	}
	// Divide out the largest common cube first.
	if cc := commonCube(f); cc != (truth.Cube{}) {
		q := divideByCube(f, cc)
		return mulTrees(cubeTree(cc), gfactor(q))
	}
	d := quickDivisor(f)
	if d == nil {
		// No literal appears twice: plain sum of cubes.
		return sumTree(f)
	}
	if len(d) == 1 && cubeNumLits(d[0]) == 1 {
		return literalFactor(f, d[0])
	}
	q, _ := divide(f, d)
	if len(q) == 0 {
		return sumTree(f)
	}
	if len(q) == 1 {
		return literalFactor(f, q[0])
	}
	q = makeCubeFree(q)
	if len(q) >= len(f) {
		// No reduction possible through this divisor; factor on the most
		// frequent literal to guarantee progress.
		v, pos, _ := mostFrequentLiteral(f)
		return literalFactor(f, truth.Cube{}.WithLit(v, pos))
	}
	d2, r2 := divide(f, q)
	if len(d2) == 0 {
		return sumTree(f)
	}
	if cc := commonCube(d2); cc != (truth.Cube{}) {
		// Divisor not cube-free: factor on its best literal instead.
		return literalFactor(f, cc)
	}
	return addTrees(mulTrees(gfactor(d2), gfactor(q)), gfactor(r2))
}

// literalFactor picks the literal of cube c occurring in the most cubes of
// f and factors f as l*(f/l) + remainder.
func literalFactor(f []truth.Cube, c truth.Cube) *Tree {
	v, neg := bestLiteral(f, c)
	l := truth.Cube{}.WithLit(v, !neg)
	q, r := divide(f, []truth.Cube{l})
	return addTrees(mulTrees(lit(v, neg), gfactor(q)), gfactor(r))
}

// bestLiteral returns the variable and phase (neg=true means the negative
// literal) of the literal in cube c appearing most often across f.
func bestLiteral(f []truth.Cube, c truth.Cube) (int, bool) {
	bestV, bestNeg, bestCount := -1, false, -1
	for v := 0; v < truth.MaxVars; v++ {
		for _, phasePos := range [2]bool{true, false} {
			if !c.HasLit(v, phasePos) {
				continue
			}
			count := 0
			for _, cu := range f {
				if cu.HasLit(v, phasePos) {
					count++
				}
			}
			if count > bestCount {
				bestV, bestNeg, bestCount = v, !phasePos, count
			}
		}
	}
	if bestV < 0 {
		panic("factor: bestLiteral on empty cube")
	}
	return bestV, bestNeg
}

// quickDivisor returns a level-0 kernel of f, or nil when f has no literal
// appearing in two or more cubes (no nontrivial kernels).
func quickDivisor(f []truth.Cube) []truth.Cube {
	v, pos, count := mostFrequentLiteral(f)
	if count < 2 {
		return nil
	}
	d := append([]truth.Cube(nil), f...)
	for count >= 2 {
		l := truth.Cube{}.WithLit(v, pos)
		d, _ = divide(d, []truth.Cube{l})
		d = makeCubeFree(d)
		if len(d) <= 1 {
			return d
		}
		v, pos, count = mostFrequentLiteral(d)
	}
	return d
}

func mostFrequentLiteral(f []truth.Cube) (v int, pos bool, count int) {
	var posCount, negCount [truth.MaxVars]int
	for _, c := range f {
		for m := c.Pos; m != 0; m &= m - 1 {
			posCount[bits.TrailingZeros16(m)]++
		}
		for m := c.Neg; m != 0; m &= m - 1 {
			negCount[bits.TrailingZeros16(m)]++
		}
	}
	count = -1
	for i := 0; i < truth.MaxVars; i++ {
		if posCount[i] > count {
			v, pos, count = i, true, posCount[i]
		}
		if negCount[i] > count {
			v, pos, count = i, false, negCount[i]
		}
	}
	return
}

// divide performs algebraic division f / d, returning quotient and
// remainder: f = q*d + r with q maximal. The quotient is sorted by (Pos, Neg)
// without duplicates, and the remainder keeps f's order.
func divide(f, d []truth.Cube) (q, r []truth.Cube) {
	if len(d) == 0 {
		return nil, f
	}
	// Quotient = intersection over divisor cubes of {fc/dc : dc ⊆ fc}: the
	// first set is q, and each later one, built in one reused buffer, is
	// merged into it in place. Every set is sorted and deduplicated.
	var buf []truth.Cube
	for i, dc := range d {
		set := buf[:0]
		if buf == nil {
			set = make([]truth.Cube, 0, len(f))
		}
		for _, fc := range f {
			if cubeContains(fc, dc) {
				set = append(set, cubeRemove(fc, dc))
			}
		}
		slices.SortFunc(set, cubeCmp)
		set = slices.Compact(set)
		if i == 0 {
			q = set
		} else {
			q, buf = intersectCubes(q, set), set
		}
		if len(q) == 0 {
			return nil, f
		}
	}
	// Remainder = f minus the product q*d. Every quotient cube is disjoint
	// from every divisor cube, so fc is a product qc*dc exactly when some
	// dc ⊆ fc leaves fc/dc in q.
	for _, fc := range f {
		if !inProduct(fc, q, d) {
			r = append(r, fc)
		}
	}
	return q, r
}

// inProduct reports whether fc is qc*dc for some qc in the sorted set q and
// some dc in d, given that q and d share no literal.
func inProduct(fc truth.Cube, q, d []truth.Cube) bool {
	for _, dc := range d {
		if cubeContains(fc, dc) {
			if _, ok := slices.BinarySearchFunc(q, cubeRemove(fc, dc), cubeCmp); ok {
				return true
			}
		}
	}
	return false
}

// intersectCubes keeps the cubes of the sorted set a that also are in the
// sorted set b, in place.
func intersectCubes(a, b []truth.Cube) []truth.Cube {
	out := a[:0]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := cubeCmp(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// cubeCmp orders cubes by (Pos, Neg).
func cubeCmp(a, b truth.Cube) int {
	return cmp.Compare(uint32(a.Pos)<<16|uint32(a.Neg), uint32(b.Pos)<<16|uint32(b.Neg))
}

func divideByCube(f []truth.Cube, c truth.Cube) []truth.Cube {
	out := make([]truth.Cube, 0, len(f))
	for _, fc := range f {
		if cubeContains(fc, c) {
			out = append(out, cubeRemove(fc, c))
		}
	}
	return out
}

// commonCube returns the cube of literals shared by all cubes of f.
func commonCube(f []truth.Cube) truth.Cube {
	if len(f) == 0 {
		return truth.Cube{}
	}
	cc := f[0]
	for _, c := range f[1:] {
		cc.Pos &= c.Pos
		cc.Neg &= c.Neg
	}
	return cc
}

// makeCubeFree divides out the common cube of f.
func makeCubeFree(f []truth.Cube) []truth.Cube {
	cc := commonCube(f)
	if cc == (truth.Cube{}) {
		return f
	}
	return divideByCube(f, cc)
}

func cubeContains(outer, inner truth.Cube) bool {
	return outer.Pos&inner.Pos == inner.Pos && outer.Neg&inner.Neg == inner.Neg
}

func cubeRemove(c, sub truth.Cube) truth.Cube {
	return truth.Cube{Pos: c.Pos &^ sub.Pos, Neg: c.Neg &^ sub.Neg}
}

func cubeProduct(a, b truth.Cube) truth.Cube {
	return truth.Cube{Pos: a.Pos | b.Pos, Neg: a.Neg | b.Neg}
}

func cubeNumLits(c truth.Cube) int { return c.NumLits() }

// cubeTree builds the AND tree of a single cube ("1" for the empty cube).
func cubeTree(c truth.Cube) *Tree {
	var lits []*Tree
	for v := 0; v < truth.MaxVars; v++ {
		if c.HasLit(v, true) {
			lits = append(lits, lit(v, false))
		}
		if c.HasLit(v, false) {
			lits = append(lits, lit(v, true))
		}
	}
	if len(lits) == 0 {
		return &Tree{Kind: KindConst1}
	}
	return nary(KindAnd, lits)
}

// sumTree builds the OR of the cube trees of f.
func sumTree(f []truth.Cube) *Tree {
	ts := make([]*Tree, len(f))
	for i, c := range f {
		ts[i] = cubeTree(c)
	}
	return nary(KindOr, ts)
}

func mulTrees(a, b *Tree) *Tree {
	if a.Kind == KindConst1 {
		return b
	}
	if b.Kind == KindConst1 {
		return a
	}
	if a.Kind == KindConst0 || b.Kind == KindConst0 {
		return &Tree{Kind: KindConst0}
	}
	var cs []*Tree
	if a.Kind == KindAnd {
		cs = append(cs, a.Children...)
	} else {
		cs = append(cs, a)
	}
	if b.Kind == KindAnd {
		cs = append(cs, b.Children...)
	} else {
		cs = append(cs, b)
	}
	return nary(KindAnd, cs)
}

func addTrees(a, b *Tree) *Tree {
	if a.Kind == KindConst0 {
		return b
	}
	if b.Kind == KindConst0 {
		return a
	}
	if a.Kind == KindConst1 || b.Kind == KindConst1 {
		return &Tree{Kind: KindConst1}
	}
	var cs []*Tree
	if a.Kind == KindOr {
		cs = append(cs, a.Children...)
	} else {
		cs = append(cs, a)
	}
	if b.Kind == KindOr {
		cs = append(cs, b.Children...)
	} else {
		cs = append(cs, b)
	}
	return nary(KindOr, cs)
}
