package aig

import "math/rand"

// Hooks for the external tests in rehash_test.go, which compare AIGER bytes
// and so cannot live in this package (internal/aiger imports it).

// RehashByRebuild is Rehash without the fixed-point copy: the structural
// rebuild and compaction every input took before, kept as the oracle of the
// differential tests.
func RehashByRebuild(a *AIG) *AIG {
	out, _ := a.rebuild(a.TopoOrder(true), true)
	final, _ := out.Compact()
	out.ReleaseStrash()
	return final
}

// RehashedForm reports whether Rehash takes the copy path for a; it panics
// as TopoOrder does.
func RehashedForm(a *AIG) bool { return a.rehashedForm(a.TopoOrder(true)) }

// Corrupt is FuzzWalk's random corruptor.
func Corrupt(a *AIG, rng *rand.Rand, nEdits int) { corrupt(a, rng, nEdits) }

// SetRawFanins stores the fanin pair of node id in the order given, which
// SetFanins would sort.
func SetRawFanins(a *AIG, id int32, f0, f1 Lit) { a.fanin0[id], a.fanin1[id] = f0, f1 }
