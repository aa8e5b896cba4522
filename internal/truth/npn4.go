package truth

// NPN canonization of 4-variable functions represented as 16-bit truth
// tables. Rewriting classifies every 4-feasible cut function into one of the
// 222 NPN classes so that one optimized subgraph per class can be reused.

import (
	"math/bits"
	"sync/atomic"
)

// Npn4Transform describes how a function was mapped to its canonical
// representative: apply the permutation, complement the inputs in InputNeg,
// and complement the output if OutputNeg. Perm[i] gives, for canonical
// input position i, the original variable feeding it.
type Npn4Transform struct {
	Perm      [4]uint8
	InputNeg  uint8 // bit i: original variable i complemented
	OutputNeg bool
}

// perms4 holds the 24 input permutations in Npn4Canon's enumeration order,
// so an index is a compact stand-in for a permutation.
var perms4 [24][4]uint8

func init() {
	i := 0
	var rec func(cur []uint8, rest []uint8)
	rec = func(cur []uint8, rest []uint8) {
		if len(rest) == 0 {
			copy(perms4[i][:], cur)
			i++
			return
		}
		for j := range rest {
			nr := append(append([]uint8{}, rest[:j]...), rest[j+1:]...)
			rec(append(cur, rest[j]), nr)
		}
	}
	rec(nil, []uint8{0, 1, 2, 3})
	for p, perm := range perms4 {
		for b := 0; b < 256; b++ {
			npn4PermTab[p][0][b] = npn4Permute(uint16(b), perm)
			npn4PermTab[p][1][b] = npn4Permute(uint16(b)<<8, perm)
		}
	}
}

// npn4PermTab[p][h][b] is permutation p applied to the table whose byte h is
// b and whose other byte is zero. A permutation moves each minterm to exactly
// one place, so it distributes over OR: permuting tt is one lookup per byte
// (24 KB for all 24 permutations, instead of 64 bit moves per transform).
var npn4PermTab [len(perms4)][2][256]uint16

// npn4FlipVar complements variable v of a 16-bit truth table.
func npn4FlipVar(tt uint16, v int) uint16 {
	switch v {
	case 0:
		return (tt&0xAAAA)>>1 | (tt&0x5555)<<1
	case 1:
		return (tt&0xCCCC)>>2 | (tt&0x3333)<<2
	case 2:
		return (tt&0xF0F0)>>4 | (tt&0x0F0F)<<4
	default:
		return tt>>8 | tt<<8
	}
}

// npn4Permute applies a variable permutation: output variable i reads
// original variable perm[i].
func npn4Permute(tt uint16, perm [4]uint8) uint16 {
	var out uint16
	for m := 0; m < 16; m++ {
		// minterm bit i of new order corresponds to original minterm with
		// bit perm[i] set when bit i of m is set.
		orig := 0
		for i := 0; i < 4; i++ {
			if m>>uint(i)&1 != 0 {
				orig |= 1 << uint(perm[i])
			}
		}
		if tt>>uint(orig)&1 != 0 {
			out |= 1 << uint(m)
		}
	}
	return out
}

// Npn4Canon returns the canonical NPN representative of tt (the numerically
// smallest table over all 768 NPN transforms) and the transform that maps
// the original function onto the canonical one. Transforms are tried
// permutation-major, then input negation, then output negation, and the first
// smallest table wins, so the transform returned for a tie is always the same.
// Npn4 is the same function, computed once per table.
func Npn4Canon(tt uint16) (uint16, Npn4Transform) {
	return npn4Unpack(npn4Canon(tt))
}

// npn4Canon is Npn4Canon in npn4Table's packed form.
func npn4Canon(tt uint16) uint32 {
	// The 16 input-negated tables, each one flip from a smaller mask.
	var negated [16]uint16
	negated[0] = tt
	for neg := 1; neg < 16; neg++ {
		negated[neg] = npn4FlipVar(negated[neg&(neg-1)], bits.TrailingZeros(uint(neg)))
	}
	best := uint16(0xFFFF)
	bestPerm, bestNeg, bestOneg := 0, 0, false
	first := true
	for p := range npn4PermTab {
		tab := &npn4PermTab[p]
		for neg, f := range negated {
			cur := tab[0][uint8(f)] | tab[1][f>>8]
			if first || cur < best {
				best, bestPerm, bestNeg, bestOneg = cur, p, neg, false
				first = false
			}
			if ^cur < best {
				best, bestPerm, bestNeg, bestOneg = ^cur, p, neg, true
			}
		}
	}
	e := uint32(best) | uint32(bestPerm)<<npnPermShift | uint32(bestNeg)<<npnInNegShift | npnValidBit
	if bestOneg {
		e |= npnOutNegBit
	}
	return e
}

// npn4Table memoizes Npn4Canon for every 16-bit table, filled on first use.
// A word packs the canonical table (bits 0-15), the permutation index (16-20),
// the input negation mask (21-24), the output negation (25) and a valid bit
// (26); Npn4Canon is deterministic, so racing writers store identical words.
var npn4Table [1 << 16]uint32

const (
	npnPermShift  = 16
	npnInNegShift = 21
	npnOutNegBit  = 1 << 25
	npnValidBit   = 1 << 26
)

// Npn4 returns Npn4Canon(tt), canonizing each table once per process: every
// later call is one atomic load, wait-free and allocation-free, on any
// goroutine. Rewriting canonizes every 4-input cut through it.
func Npn4(tt uint16) (uint16, Npn4Transform) {
	e := atomic.LoadUint32(&npn4Table[tt])
	if e&npnValidBit == 0 {
		e = npn4Canon(tt)
		atomic.StoreUint32(&npn4Table[tt], e)
	}
	return npn4Unpack(e)
}

// npn4Unpack decodes a packed npn4Table word.
func npn4Unpack(e uint32) (uint16, Npn4Transform) {
	return uint16(e), Npn4Transform{
		Perm:      perms4[e>>npnPermShift&31],
		InputNeg:  uint8(e >> npnInNegShift & 15),
		OutputNeg: e&npnOutNegBit != 0,
	}
}
