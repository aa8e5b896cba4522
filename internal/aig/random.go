package aig

import "math/rand"

// Random builds a pseudo-random strashed AIG with the given number of PIs,
// roughly nAnds AND nodes, and nPOs primary outputs. The generator combines
// recent signals preferentially, producing DAGs with realistic depth and
// reconvergence, in the spirit of the EPFL "MtM" (more-than-a-million)
// random-function benchmarks. Structural hashing may make the result
// slightly smaller than nAnds.
func Random(rng *rand.Rand, nPIs, nAnds, nPOs int) *AIG {
	a := NewCap(nPIs, nPIs+1+nAnds)
	a.EnableStrash()
	lits := make([]Lit, 0, nPIs+nAnds)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, a.PI(i))
	}
	for a.NumAnds() < nAnds {
		// Bias toward recent nodes to build depth, with occasional long
		// back-edges for reconvergence.
		i := pickBiased(rng, len(lits))
		j := pickBiased(rng, len(lits))
		f0 := lits[i].NotCond(rng.Intn(2) == 0)
		f1 := lits[j].NotCond(rng.Intn(2) == 0)
		l := a.NewAnd(f0, f1)
		if a.IsAnd(l.Var()) {
			lits = append(lits, l)
		}
	}
	// Drive POs from the most recent signals so most of the graph is
	// reachable.
	for i := 0; i < nPOs; i++ {
		idx := len(lits) - 1 - rng.Intn(min(len(lits), 4*nPOs))
		if idx < 0 {
			idx = rng.Intn(len(lits))
		}
		a.AddPO(lits[idx].NotCond(rng.Intn(2) == 0))
	}
	return a
}

func pickBiased(rng *rand.Rand, n int) int {
	if n == 1 {
		return 0
	}
	if rng.Intn(4) == 0 {
		return rng.Intn(n) // uniform back-edge
	}
	w := n / 4
	if w < 1 {
		w = 1
	}
	return n - 1 - rng.Intn(w)
}
