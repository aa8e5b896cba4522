package aig

import "math/rand"

// Hooks for the external tests in rehash_test.go, which compare AIGER bytes
// and so cannot live in this package (internal/aiger imports it).

// RehashByRebuild is Rehash without the copy of a Clean network: the
// structural rebuild and compaction, kept as the oracle of the differential
// tests.
func RehashByRebuild(a *AIG) *AIG {
	order, err := a.replayOrder()
	if err != nil {
		panic(err)
	}
	out, _ := a.rebuild(order, true)
	final, _ := out.Compact()
	out.ReleaseStrash()
	return final
}

// Corrupt is FuzzWalk's random corruptor.
func Corrupt(a *AIG, rng *rand.Rand, nEdits int) { corrupt(a, rng, nEdits) }

// SetRawFanins stores the fanin pair of node id in the order given, which
// SetFanins would sort.
func SetRawFanins(a *AIG, id int32, f0, f1 Lit) { a.fanin0[id], a.fanin1[id] = f0, f1 }
