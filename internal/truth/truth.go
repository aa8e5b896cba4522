// Package truth implements bit-parallel truth tables for Boolean functions
// of up to MaxVars variables, together with the irredundant sum-of-products
// (ISOP) computation used by refactoring to resynthesize cone functions.
package truth

import (
	"fmt"
	"math/bits"
)

// MaxVars is the largest supported number of variables. The paper uses
// maximum cut sizes of 11–12 for refactoring; 16 leaves headroom.
const MaxVars = 16

// masks for variables 0..5, whose patterns repeat within one 64-bit word.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// TT is a truth table over NVars variables stored as 2^NVars bits
// (minimum one word).
type TT struct {
	NVars int
	Words []uint64
}

// WordCount returns the number of 64-bit words for an n-variable table.
func WordCount(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// usedMask returns the mask of meaningful bits in the (single) word of a
// table with fewer than 6 variables.
func usedMask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

// New returns the constant-false table over n variables.
func New(n int) TT {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("truth: %d variables unsupported", n))
	}
	return TT{NVars: n, Words: make([]uint64, WordCount(n))}
}

// Const returns the constant table with the given value.
func Const(n int, value bool) TT {
	t := New(n)
	if value {
		for i := range t.Words {
			t.Words[i] = ^uint64(0)
		}
	}
	return t
}

// Var returns the table of variable v over n variables.
func Var(n, v int) TT {
	if v < 0 || v >= n {
		panic(fmt.Sprintf("truth: variable %d out of range for %d vars", v, n))
	}
	t := New(n)
	if v < 6 {
		for i := range t.Words {
			t.Words[i] = varMasks[v]
		}
		return t
	}
	step := 1 << (v - 6)
	for i := range t.Words {
		if i&step != 0 {
			t.Words[i] = ^uint64(0)
		}
	}
	return t
}

// Clone returns an independent copy.
func (t TT) Clone() TT {
	return TT{NVars: t.NVars, Words: append([]uint64(nil), t.Words...)}
}

// Fill sets t to the constant table with the given value in place.
func (t TT) Fill(value bool) TT {
	w := uint64(0)
	if value {
		w = ^uint64(0)
	}
	for i := range t.Words {
		t.Words[i] = w
	}
	return t
}

// SetVar fills t with the table of variable v in place (Var without the
// allocation).
func (t TT) SetVar(v int) TT {
	if v < 0 || v >= t.NVars {
		panic(fmt.Sprintf("truth: variable %d out of range for %d vars", v, t.NVars))
	}
	if v < 6 {
		for i := range t.Words {
			t.Words[i] = varMasks[v]
		}
		return t
	}
	step := 1 << (v - 6)
	for i := range t.Words {
		if i&step != 0 {
			t.Words[i] = ^uint64(0)
		} else {
			t.Words[i] = 0
		}
	}
	return t
}

// AndCompl stores (x XOR nx) AND (y XOR ny) into t: the AND of the two
// operands with optional input complementation, fused so callers need no
// temporary for the NOT.
func (t TT) AndCompl(x TT, nx bool, y TT, ny bool) TT {
	mx, my := uint64(0), uint64(0)
	if nx {
		mx = ^uint64(0)
	}
	if ny {
		my = ^uint64(0)
	}
	for i := range t.Words {
		t.Words[i] = (x.Words[i] ^ mx) & (y.Words[i] ^ my)
	}
	return t
}

// And stores x AND y into t (t may alias either operand).
func (t TT) And(x, y TT) TT {
	for i := range t.Words {
		t.Words[i] = x.Words[i] & y.Words[i]
	}
	return t
}

// Or stores x OR y into t.
func (t TT) Or(x, y TT) TT {
	for i := range t.Words {
		t.Words[i] = x.Words[i] | y.Words[i]
	}
	return t
}

// Xor stores x XOR y into t.
func (t TT) Xor(x, y TT) TT {
	for i := range t.Words {
		t.Words[i] = x.Words[i] ^ y.Words[i]
	}
	return t
}

// AndNot stores x AND NOT y into t.
func (t TT) AndNot(x, y TT) TT {
	for i := range t.Words {
		t.Words[i] = x.Words[i] &^ y.Words[i]
	}
	return t
}

// Not stores NOT x into t.
func (t TT) Not(x TT) TT {
	for i := range t.Words {
		t.Words[i] = ^x.Words[i]
	}
	return t
}

// Copy stores x into t.
func (t TT) Copy(x TT) TT {
	copy(t.Words, x.Words)
	return t
}

// Equal reports whether two tables over the same variable count are equal.
func (t TT) Equal(o TT) bool {
	m := usedMask(t.NVars)
	for i := range t.Words {
		mask := uint64(^uint64(0))
		if t.NVars < 6 {
			mask = m
		}
		if (t.Words[i]^o.Words[i])&mask != 0 {
			return false
		}
	}
	return true
}

// IsConst0 reports whether the table is constant false.
func (t TT) IsConst0() bool {
	m := usedMask(t.NVars)
	for _, w := range t.Words {
		mask := uint64(^uint64(0))
		if t.NVars < 6 {
			mask = m
		}
		if w&mask != 0 {
			return false
		}
	}
	return true
}

// IsConst1 reports whether the table is constant true.
func (t TT) IsConst1() bool {
	m := usedMask(t.NVars)
	for _, w := range t.Words {
		mask := uint64(^uint64(0))
		if t.NVars < 6 {
			mask = m
		}
		if w&mask != mask {
			return false
		}
	}
	return true
}

// CountOnes returns the number of minterms.
func (t TT) CountOnes() int {
	m := usedMask(t.NVars)
	c := 0
	for _, w := range t.Words {
		if t.NVars < 6 {
			w &= m
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// Bit returns minterm m of the table.
func (t TT) Bit(m int) bool {
	return t.Words[m>>6]>>(uint(m)&63)&1 != 0
}

// SetBit sets minterm m.
func (t TT) SetBit(m int) {
	t.Words[m>>6] |= 1 << (uint(m) & 63)
}

// Cofactor0 stores into t the negative cofactor of x with respect to v
// (the cofactor value is replicated over both halves of v).
func (t TT) Cofactor0(x TT, v int) TT {
	if v < 6 {
		mask := ^varMasks[v]
		shift := uint(1) << v
		for i := range t.Words {
			lo := x.Words[i] & mask
			t.Words[i] = lo | lo<<shift
		}
		return t
	}
	step := 1 << (v - 6)
	for i := 0; i < len(t.Words); i += 2 * step {
		for j := 0; j < step; j++ {
			w := x.Words[i+j]
			t.Words[i+j] = w
			t.Words[i+j+step] = w
		}
	}
	return t
}

// Cofactor1 stores into t the positive cofactor of x with respect to v.
func (t TT) Cofactor1(x TT, v int) TT {
	if v < 6 {
		mask := varMasks[v]
		shift := uint(1) << v
		for i := range t.Words {
			hi := x.Words[i] & mask
			t.Words[i] = hi | hi>>shift
		}
		return t
	}
	step := 1 << (v - 6)
	for i := 0; i < len(t.Words); i += 2 * step {
		for j := 0; j < step; j++ {
			w := x.Words[i+j+step]
			t.Words[i+j] = w
			t.Words[i+j+step] = w
		}
	}
	return t
}

// wordDependsOn reports whether the single-word table w depends on variable
// v < 6, comparing the two cofactors over the whole word.
func wordDependsOn(w uint64, v int) bool {
	return (w&varMasks[v])>>(uint(1)<<uint(v)) != w&^varMasks[v]
}

// dependsOn checks variable dependence without allocating.
func dependsOn(t TT, v int) bool {
	if v < 6 {
		for _, w := range t.Words {
			if wordDependsOn(w, v) {
				return true
			}
		}
		return false
	}
	step := 1 << (v - 6)
	for i := 0; i < len(t.Words); i += 2 * step {
		for j := 0; j < step; j++ {
			if t.Words[i+j] != t.Words[i+j+step] {
				return true
			}
		}
	}
	return false
}

// DependsOn reports whether the function depends on variable v. It compares
// the two cofactors in place without allocating.
func (t TT) DependsOn(v int) bool {
	if t.NVars < 6 {
		// Single word with garbage above the meaningful bits: mask first so
		// tables built through different op sequences agree.
		return wordDependsOn(t.Words[0]&usedMask(t.NVars), v)
	}
	return dependsOn(t, v)
}

// SupportInto writes the indices of the variables the function depends on
// into dst[:0] and returns the extended slice. It performs no allocation
// when dst has sufficient capacity (NVars is always enough).
func (t TT) SupportInto(dst []int) []int {
	dst = dst[:0]
	for v := 0; v < t.NVars; v++ {
		if t.DependsOn(v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// Support returns the indices of the variables the function depends on.
// Allocating convenience wrapper around SupportInto.
func (t TT) Support() []int {
	return t.SupportInto(nil)
}

// String renders the table as a hex string (most significant word first),
// trimmed to the meaningful bits.
func (t TT) String() string {
	s := ""
	for i := len(t.Words) - 1; i >= 0; i-- {
		w := t.Words[i]
		if t.NVars < 6 {
			w &= usedMask(t.NVars)
			digits := (1 << t.NVars) / 4
			if digits == 0 {
				digits = 1
			}
			return fmt.Sprintf("%0*x", digits, w)
		}
		s += fmt.Sprintf("%016x", w)
	}
	return s
}
