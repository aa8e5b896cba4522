package truth

import (
	"fmt"
	"math/bits"
)

// Cube is a product term over up to MaxVars variables: bit v of Pos (Neg)
// set means the positive (negative) literal of variable v appears.
type Cube struct {
	Pos, Neg uint16
}

// NumLits returns the number of literals in the cube.
func (c Cube) NumLits() int {
	n := 0
	for m := c.Pos; m != 0; m &= m - 1 {
		n++
	}
	for m := c.Neg; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// HasLit reports whether the cube contains the literal of variable v with
// the given phase (true = positive).
func (c Cube) HasLit(v int, positive bool) bool {
	if positive {
		return c.Pos>>uint(v)&1 != 0
	}
	return c.Neg>>uint(v)&1 != 0
}

// WithLit returns the cube extended by a literal.
func (c Cube) WithLit(v int, positive bool) Cube {
	if positive {
		c.Pos |= 1 << uint(v)
	} else {
		c.Neg |= 1 << uint(v)
	}
	return c
}

func (c Cube) String() string {
	s := ""
	for v := 0; v < MaxVars; v++ {
		if c.HasLit(v, true) {
			s += fmt.Sprintf("x%d ", v)
		}
		if c.HasLit(v, false) {
			s += fmt.Sprintf("!x%d ", v)
		}
	}
	if s == "" {
		return "<1>"
	}
	return s[:len(s)-1]
}

// SOP is a sum of products.
type SOP struct {
	NVars int
	Cubes []Cube
}

// NumLits returns the total literal count (the classic SOP cost measure).
func (s SOP) NumLits() int {
	n := 0
	for _, c := range s.Cubes {
		n += c.NumLits()
	}
	return n
}

// IsConst0 reports whether the SOP is the empty sum.
func (s SOP) IsConst0() bool { return len(s.Cubes) == 0 }

// IsConst1 reports whether the SOP is a single empty cube.
func (s SOP) IsConst1() bool {
	return len(s.Cubes) == 1 && s.Cubes[0] == Cube{}
}

// TT evaluates the SOP into a truth table (for verification).
func (s SOP) TT() TT {
	res := New(s.NVars)
	tmp := New(s.NVars)
	for _, c := range s.Cubes {
		for i := range tmp.Words {
			tmp.Words[i] = ^uint64(0)
		}
		for v := 0; v < s.NVars; v++ {
			if c.HasLit(v, true) {
				tmp.And(tmp, Var(s.NVars, v))
			}
			if c.HasLit(v, false) {
				tmp.AndNot(tmp, Var(s.NVars, v))
			}
		}
		res.Or(res, tmp)
	}
	return res
}

// ISOP computes an irredundant sum-of-products of the incompletely
// specified function [onset, onset|dc] using the Minato-Morreale procedure.
// With dc = nil the function is completely specified. The returned SOP
// covers at least the onset and nothing outside onset|dc, and no cube or
// literal can be dropped without losing coverage.
func ISOP(onset TT, dc TT) SOP {
	s, _ := ISOPCount(onset, dc)
	return s
}

// ISOPCount is ISOP returning additionally an elementary-operation estimate
// (recursive calls times table size), used for device-time accounting.
func ISOPCount(onset TT, dc TT) (SOP, int64) {
	cubes, ops := isopCount(onset.NVars, onset.Words, dc.Words, false)
	return SOP{NVars: onset.NVars, Cubes: cubes}, ops
}

// MinPhaseISOP computes ISOPs of both the function and its complement and
// returns the cheaper one (by cube count, then literal count) together with
// a flag telling whether the complement was chosen. ABC's refactoring does
// the same to reduce the factored-form size.
func MinPhaseISOP(onset TT) (SOP, bool) {
	s, compl, _ := MinPhaseISOPCount(onset)
	return s, compl
}

// MinPhaseISOPCount is MinPhaseISOP with an operation estimate.
func MinPhaseISOPCount(onset TT) (SOP, bool, int64) {
	n := onset.NVars
	pos, opsP := isopCount(n, onset.Words, nil, false)
	neg, opsN := isopCount(n, onset.Words, nil, true)
	if len(neg) < len(pos) ||
		(len(neg) == len(pos) && SOP{Cubes: neg}.NumLits() < SOP{Cubes: pos}.NumLits()) {
		return SOP{NVars: n, Cubes: neg}, true, opsP + opsN
	}
	return SOP{NVars: n, Cubes: pos}, false, opsP + opsN
}

// isopRun is the state of one ISOP computation. The recursion works on
// tables only as wide as the function under it: a table that depends on no
// variable >= 6+k is fully described by its first 2^k words, so splitting on
// the top support variable v >= 6 makes the two halves of that prefix the
// cofactors (views, no copy) and every sub-call runs on half the words. At
// one word the recursion continues on plain uint64 values.
type isopRun struct {
	cubes []Cube
	calls int    // recursion count, for work estimation
	mask  uint64 // meaningful bits of a table of fewer than 6 variables
	// buf is the stack of temporaries of the wide recursion, carved by
	// alloc and released by resetting sp; isopCount sizes it for the whole
	// recursion.
	buf []uint64
	sp  int
}

func (r *isopRun) alloc(w int) []uint64 {
	s := r.buf[r.sp : r.sp+w : r.sp+w]
	r.sp += w
	return s
}

// isopCount computes the ISOP of [onset, onset|dc] (of the complement of
// onset when neg) over n variables and the operation estimate. The estimate
// charges every recursive call the full table width, 12 word operations per
// word: it models the device kernel, whose threads run each level at full
// width, not this host implementation.
func isopCount(n int, onset, dc []uint64, neg bool) ([]Cube, int64) {
	r := isopRun{cubes: make([]Cube, 0, 16), mask: usedMask(n)}
	if n <= 6 {
		lower := onset[0]
		if neg {
			lower = ^lower
		}
		upper := lower
		if dc != nil {
			upper |= dc[0]
		}
		r.word(lower, upper, n)
	} else {
		// The top-level cover plus three half-width temporaries per level,
		// 3*(1/2+1/4+...) < 3 tables, plus the bounds that need a copy.
		w := WordCount(n)
		need := 4 * w
		if neg {
			need += w
		}
		if dc != nil {
			need += w
		}
		r.buf = make([]uint64, need)
		lower := onset
		if neg {
			lower = r.alloc(w)
			for i := range lower {
				lower[i] = ^onset[i]
			}
		}
		upper := lower
		if dc != nil {
			upper = r.alloc(w)
			for i := range upper {
				upper[i] = lower[i] | dc[i]
			}
		}
		r.wide(lower, upper, r.alloc(w))
	}
	return r.cubes, int64(r.calls) * int64(12*WordCount(n))
}

func isZero(t []uint64) bool {
	for _, w := range t {
		if w != 0 {
			return false
		}
	}
	return true
}

func isOnes(t []uint64) bool {
	for _, w := range t {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

func halvesEqual(t []uint64) bool {
	h := len(t) / 2
	for i, w := range t[:h] {
		if w != t[h+i] {
			return false
		}
	}
	return true
}

// wide appends the cubes of an ISOP of [L, U] to r.cubes and writes the
// truth table of that cover to cov. L, U and cov have the same power-of-two
// length of at least one word, and L and U are read-only views that depend
// on no variable beyond that width.
func (r *isopRun) wide(L, U, cov []uint64) {
	r.calls++
	if isZero(L) {
		for i := range cov {
			cov[i] = 0
		}
		return
	}
	if isOnes(U) {
		r.cubes = append(r.cubes, Cube{})
		for i := range cov {
			cov[i] = ^uint64(0)
		}
		return
	}
	// Find the top variable either bound depends on: drop the upper half of
	// the prefix while it repeats the lower one.
	w := len(L)
	for w > 1 && halvesEqual(L[:w]) && halvesEqual(U[:w]) {
		w >>= 1
	}
	if w == 1 {
		c := r.splitWord(L[0], U[0], 6)
		for i := range cov {
			cov[i] = c
		}
		return
	}
	v := 5 + bits.TrailingZeros(uint(w)) // w = 2^(v+1-6) words
	h := w / 2
	L0, L1, U0, U1 := L[:h], L[h:w], U[:h], U[h:w]
	cov0, cov1 := cov[:h], cov[h:w]
	sp := r.sp
	t := r.alloc(h)

	// Cubes that must contain !v: needed where the function must be 1 with
	// v=0 but may not be 1 with v=1.
	for i := range t {
		t[i] = L0[i] &^ U1[i]
	}
	start := len(r.cubes)
	r.wide(t, U0, cov0)
	// Cubes that must contain v.
	for i := range t {
		t[i] = L1[i] &^ U0[i]
	}
	mid := len(r.cubes)
	r.wide(t, U1, cov1)
	end := len(r.cubes)
	// Remaining onset, coverable without v.
	ustar, covs := r.alloc(h), r.alloc(h)
	for i := range t {
		t[i] = L0[i]&^cov0[i] | L1[i]&^cov1[i]
		ustar[i] = U0[i] & U1[i]
	}
	r.wide(t, ustar, covs)

	for i := start; i < mid; i++ {
		r.cubes[i].Neg |= 1 << uint(v)
	}
	for i := mid; i < end; i++ {
		r.cubes[i].Pos |= 1 << uint(v)
	}
	// cover = cov0&!v | cov1&v | covs: cov0 and cov1 already sit in the two
	// halves; the result repeats over the width the caller asked for.
	for i, c := range covs {
		cov0[i] |= c
		cov1[i] |= c
	}
	for i := w; i < len(cov); i += w {
		copy(cov[i:i+w], cov[:w])
	}
	r.sp = sp
}

// word is wide on single-word tables, returning the cover. Only variables
// below topVar are considered. The constant tests look at the meaningful
// bits only; everything else runs on the whole word, so tables of fewer than
// 6 variables may carry anything above bit 2^n.
func (r *isopRun) word(L, U uint64, topVar int) uint64 {
	r.calls++
	if L&r.mask == 0 {
		return 0
	}
	if U&r.mask == r.mask {
		r.cubes = append(r.cubes, Cube{})
		return ^uint64(0)
	}
	return r.splitWord(L, U, topVar)
}

// splitWord is word past the constant tests: [L, U] is known not to be
// trivially coverable.
func (r *isopRun) splitWord(L, U uint64, topVar int) uint64 {
	v := topVar - 1
	for v >= 0 && !wordDependsOn(L, v) && !wordDependsOn(U, v) {
		v--
	}
	if v < 0 {
		// L nonzero and U not tautology with no support left cannot happen
		// for consistent bounds (L <= U).
		panic("truth: ISOP invariant violated (is onset <= upperset?)")
	}
	hi, shift := varMasks[v], uint(1)<<uint(v)
	L0, L1 := L&^hi, L&hi
	L0, L1 = L0|L0<<shift, L1|L1>>shift
	U0, U1 := U&^hi, U&hi
	U0, U1 = U0|U0<<shift, U1|U1>>shift

	start := len(r.cubes)
	cov0 := r.word(L0&^U1, U0, v)
	mid := len(r.cubes)
	cov1 := r.word(L1&^U0, U1, v)
	end := len(r.cubes)
	covs := r.word(L0&^cov0|L1&^cov1, U0&U1, v)

	for i := start; i < mid; i++ {
		r.cubes[i].Neg |= 1 << uint(v)
	}
	for i := mid; i < end; i++ {
		r.cubes[i].Pos |= 1 << uint(v)
	}
	return cov0&^hi | cov1&hi | covs
}
