package bench

import (
	"fmt"

	"aigre/internal/aig"
)

// DeepNarrow builds the adversarial deep-and-narrow circuit used by the
// partition-parallel benchmarks: chains primary-output cones, each a chain
// of steps XOR-accumulator stages over a small rotating window of 32 shared
// primary inputs. Each stage spends 4 AND nodes (one gating AND plus a 3-AND
// XOR), so the network is built with exactly 4*chains*steps AND nodes and
// about 2*steps levels — 64 chains of 4000 steps is a million-node AIG. The
// nodes are added unhashed and every PI index is taken modulo 32, so chains
// c and c+32 are the same structure twice: past 32 chains a strashing reader
// (aigre.Read) merges them, and DeepNarrow(64, 4000) arrives as 511,992 ANDs
// in 32 distinct cones with POs 32..63 on the roots of POs 0..31.
//
// The shape is the worst case for kernel-level parallelism (a level holds at
// most a few nodes per chain, so a parallel command launches thousands of
// nearly-empty kernels) and the best case for cone partitioning (distinct
// chains share no AND node, so every partition seam is conflict-free).
// XOR accumulation keeps the chains incompressible: optimization cannot
// collapse the depth, only tidy locally.
func DeepNarrow(chains, steps int) *aig.AIG {
	if chains < 1 {
		chains = 1
	}
	if steps < 1 {
		steps = 1
	}
	const npi = 32
	a := aig.NewCap(npi, npi+1+4*chains*steps)
	a.Name = fmt.Sprintf("deep_narrow_%dx%d", chains, steps)
	for c := 0; c < chains; c++ {
		acc := a.PI((c * 7) % npi)
		side := a.PI((c*13 + 5) % npi).NotCond(c%2 == 1)
		for k := 0; k < steps; k++ {
			pi := a.PI((c*31 + k*17 + 3) % npi)
			gate := a.AddAndUnchecked(pi, side)
			// acc ^= gate, spelled in AND gates.
			t0 := a.AddAndUnchecked(acc, gate.Not())
			t1 := a.AddAndUnchecked(acc.Not(), gate)
			side = acc
			acc = a.AddAndUnchecked(t0.Not(), t1.Not()).Not()
		}
		a.AddPO(acc)
	}
	return a
}
