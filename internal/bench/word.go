// Package bench generates the benchmark circuits used by the experiments:
// from-scratch equivalents of the EPFL arithmetic suite (adder, multiplier,
// square, div, sqrt, hyp, log2, sin), the EPFL voter, IWLS-2005-style
// control circuits (mem_ctrl, ac97_ctrl, vga_lcd), and EPFL MtM-style random
// functions, plus ABC's `double` network replication used to enlarge them
// (see DESIGN.md for the substitution rationale). It is built on a word-level
// circuit construction substrate.
package bench

import (
	"fmt"

	"aigre/internal/aig"
)

// Word is a little-endian vector of signal literals (bit 0 first).
type Word []aig.Lit

// Builder constructs word-level datapaths on an underlying AIG.
type Builder struct {
	A      *aig.AIG
	inputs []Word
}

// NewBuilder creates a builder whose primary inputs are pre-allocated as
// words of the given widths (AIG PIs must precede AND nodes).
func NewBuilder(widths ...int) *Builder {
	total := 0
	for _, w := range widths {
		total += w
	}
	a := aig.New(total)
	a.EnableStrash()
	b := &Builder{A: a}
	idx := 0
	for _, w := range widths {
		word := make(Word, w)
		for i := 0; i < w; i++ {
			word[i] = a.PI(idx)
			idx++
		}
		b.inputs = append(b.inputs, word)
	}
	return b
}

// Input returns the i-th input word.
func (b *Builder) Input(i int) Word { return b.inputs[i] }

// Output drives primary outputs with every bit of w.
func (b *Builder) Output(w Word) {
	for _, l := range w {
		b.A.AddPO(l)
	}
}

// Const builds a constant word.
func (b *Builder) Const(width int, value uint64) Word {
	w := make(Word, width)
	for i := range w {
		if value>>uint(i)&1 != 0 {
			w[i] = aig.ConstTrue
		} else {
			w[i] = aig.ConstFalse
		}
	}
	return w
}

// Zext zero-extends (or truncates) w to width bits.
func (b *Builder) Zext(w Word, width int) Word {
	out := make(Word, width)
	for i := range out {
		if i < len(w) {
			out[i] = w[i]
		} else {
			out[i] = aig.ConstFalse
		}
	}
	return out
}

// Not complements every bit.
func (b *Builder) Not(w Word) Word {
	out := make(Word, len(w))
	for i, l := range w {
		out[i] = l.Not()
	}
	return out
}

// And, Or, Xor are bitwise operations over equal-width words.
func (b *Builder) And(x, y Word) Word { return b.bitwise(x, y, b.A.NewAnd) }
func (b *Builder) Or(x, y Word) Word  { return b.bitwise(x, y, b.A.Or) }
func (b *Builder) Xor(x, y Word) Word { return b.bitwise(x, y, b.A.Xor) }

func (b *Builder) bitwise(x, y Word, op func(aig.Lit, aig.Lit) aig.Lit) Word {
	if len(x) != len(y) {
		panic(fmt.Sprintf("bench: width mismatch %d vs %d", len(x), len(y)))
	}
	out := make(Word, len(x))
	for i := range x {
		out[i] = op(x[i], y[i])
	}
	return out
}

// fullAdder returns (sum, carry) of three bits.
func (b *Builder) fullAdder(x, y, c aig.Lit) (aig.Lit, aig.Lit) {
	s := b.A.Xor(b.A.Xor(x, y), c)
	co := b.A.Maj3(x, y, c)
	return s, co
}

// Add returns x+y (width max(len)) and the carry-out (ripple-carry).
func (b *Builder) Add(x, y Word, cin aig.Lit) (Word, aig.Lit) {
	width := len(x)
	if len(y) > width {
		width = len(y)
	}
	x = b.Zext(x, width)
	y = b.Zext(y, width)
	out := make(Word, width)
	c := cin
	for i := 0; i < width; i++ {
		out[i], c = b.fullAdder(x[i], y[i], c)
	}
	return out, c
}

// Sub returns x-y and a borrow-free flag (1 when x >= y).
func (b *Builder) Sub(x, y Word) (Word, aig.Lit) {
	width := len(x)
	if len(y) > width {
		width = len(y)
	}
	diff, carry := b.Add(b.Zext(x, width), b.Not(b.Zext(y, width)), aig.ConstTrue)
	return diff, carry
}

// MuxWord selects t when sel else e.
func (b *Builder) MuxWord(sel aig.Lit, t, e Word) Word {
	if len(t) != len(e) {
		panic("bench: mux width mismatch")
	}
	out := make(Word, len(t))
	for i := range t {
		out[i] = b.A.Mux(sel, t[i], e[i])
	}
	return out
}

// Mul returns the full 2W-bit product of two W-bit words (array multiplier:
// AND partial products summed by ripple adders).
func (b *Builder) Mul(x, y Word) Word {
	w := len(x)
	acc := b.Const(len(x)+len(y), 0)
	for i := 0; i < len(y); i++ {
		pp := make(Word, len(x)+len(y))
		for j := range pp {
			pp[j] = aig.ConstFalse
		}
		for j := 0; j < w; j++ {
			if i+j < len(pp) {
				pp[i+j] = b.A.NewAnd(x[j], y[i])
			}
		}
		acc, _ = b.Add(acc, pp, aig.ConstFalse)
	}
	return acc
}

// ShiftLeftConst shifts w left by k bits, keeping the width.
func (b *Builder) ShiftLeftConst(w Word, k int) Word {
	out := make(Word, len(w))
	for i := range out {
		if i-k >= 0 {
			out[i] = w[i-k]
		} else {
			out[i] = aig.ConstFalse
		}
	}
	return out
}

// ShiftRightConst shifts w right by k bits, keeping the width.
func (b *Builder) ShiftRightConst(w Word, k int) Word {
	out := make(Word, len(w))
	for i := range out {
		if i+k < len(w) {
			out[i] = w[i+k]
		} else {
			out[i] = aig.ConstFalse
		}
	}
	return out
}

// BarrelShiftLeft shifts value left by the amount encoded in amt (a log-W
// stage barrel shifter).
func (b *Builder) BarrelShiftLeft(value Word, amt Word) Word {
	out := value
	for s := 0; s < len(amt); s++ {
		shifted := b.ShiftLeftConst(out, 1<<uint(s))
		out = b.MuxWord(amt[s], shifted, out)
	}
	return out
}

// BarrelShiftRight is the right-shifting counterpart.
func (b *Builder) BarrelShiftRight(value Word, amt Word) Word {
	out := value
	for s := 0; s < len(amt); s++ {
		shifted := b.ShiftRightConst(out, 1<<uint(s))
		out = b.MuxWord(amt[s], shifted, out)
	}
	return out
}

// Eq returns the equality of two words.
func (b *Builder) Eq(x, y Word) aig.Lit {
	res := aig.ConstTrue
	for i := range x {
		res = b.A.NewAnd(res, b.A.Xor(x[i], y[i]).Not())
	}
	return res
}

// Ult returns 1 when x < y (unsigned).
func (b *Builder) Ult(x, y Word) aig.Lit {
	_, geq := b.Sub(x, y)
	return geq.Not()
}

// ReduceXor XORs all bits.
func (b *Builder) ReduceXor(w Word) aig.Lit {
	res := aig.ConstFalse
	for _, l := range w {
		res = b.A.Xor(res, l)
	}
	return res
}

// Popcount sums the bits of w into a count word (adder tree).
func (b *Builder) Popcount(w Word) Word {
	// Reduce words pairwise: start from 1-bit counts.
	counts := make([]Word, len(w))
	for i, l := range w {
		counts[i] = Word{l}
	}
	for len(counts) > 1 {
		var next []Word
		for i := 0; i+1 < len(counts); i += 2 {
			width := len(counts[i])
			if len(counts[i+1]) > width {
				width = len(counts[i+1])
			}
			sum, carry := b.Add(b.Zext(counts[i], width), b.Zext(counts[i+1], width), aig.ConstFalse)
			next = append(next, append(sum, carry))
		}
		if len(counts)%2 == 1 {
			next = append(next, counts[len(counts)-1])
		}
		counts = next
	}
	return counts[0]
}

// DivMod computes the restoring division q = x/y, r = x%y for W-bit words.
// The structure is long and narrow (O(W) dependent subtract stages), like
// the EPFL div benchmark.
func (b *Builder) DivMod(x, y Word) (q, r Word) {
	w := len(x)
	r = b.Const(w, 0)
	q = make(Word, w)
	for i := w - 1; i >= 0; i-- {
		// r = (r << 1) | x[i]
		r = append(Word{x[i]}, r[:w-1]...)
		diff, geq := b.Sub(r, y)
		q[i] = geq
		r = b.MuxWord(geq, diff, r)
	}
	return q, r
}

// Sqrt computes the W/2-bit integer square root of a W-bit word by the
// digit-by-digit (restoring) method, again a long dependent chain like the
// EPFL sqrt benchmark.
func (b *Builder) Sqrt(x Word) Word {
	w := len(x)
	resBits := (w + 1) / 2
	root := b.Const(w, 0)  // current root estimate
	rem := b.Const(w+2, 0) // running remainder
	for i := resBits - 1; i >= 0; i-- {
		// Bring down two bits of x.
		hi := aig.ConstFalse
		lo := aig.ConstFalse
		if 2*i+1 < w {
			hi = x[2*i+1]
		}
		if 2*i < w {
			lo = x[2*i]
		}
		rem = append(Word{lo, hi}, rem[:len(rem)-2]...)
		// Trial subtractor value: 4*root + 1.
		trial := b.ShiftLeftConst(b.Zext(root, len(rem)), 2)
		trial[0] = aig.ConstTrue
		diff, geq := b.Sub(rem, trial)
		rem = b.MuxWord(geq, diff, rem)
		// root = (root << 1) | geq
		root = append(Word{geq}, root[:len(root)-1]...)
	}
	return root[:resBits]
}

// PriorityEncode returns the index of the most significant set bit of w (0
// when none) and a "found" flag.
func (b *Builder) PriorityEncode(w Word) (Word, aig.Lit) {
	width := 0
	for 1<<width < len(w) {
		width++
	}
	// Scan from the MSB down, keeping the first hit.
	idx := b.Const(width, 0)
	found := aig.ConstFalse
	for i := len(w) - 1; i >= 0; i-- {
		take := b.A.NewAnd(w[i], found.Not())
		idx = b.MuxWord(take, b.Const(width, uint64(i)), idx)
		found = b.A.Or(found, w[i])
	}
	return idx, found
}
