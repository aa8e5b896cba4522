package cec

import (
	"fmt"
	"math/rand"

	"aigre/internal/aig"
	"aigre/internal/sat"
)

// satMiter proves or refutes output equivalence through SAT sweeping (the
// approach of ABC's cec/fraig): the two networks are merged over shared PIs,
// random simulation groups internal nodes into candidate-equivalence
// classes, and candidates are proven with small budgeted SAT calls in
// topological order, merging proven nodes so later proofs become local.
// Arithmetic-circuit miters (multipliers, dividers) that are hopeless for a
// monolithic CDCL call dissolve under sweeping because optimized networks
// share almost all internal structure with their originals.
func satMiter(a, b *aig.AIG, opts Options) (Result, error) {
	nPIs := a.NumPIs()
	// Merge both networks over shared PIs with structural hashing.
	m := aig.NewCap(nPIs, a.NumObjs()+b.NumObjs())
	m.EnableStrash()
	litsA := copyInto(m, a)
	litsB := copyInto(m, b)

	sw := newSweeper(m, opts)
	sw.run()

	// Compare swept outputs.
	for o := range litsA {
		la := sw.mapLit(litsA[o])
		lb := sw.mapLit(litsB[o])
		if la == lb {
			continue
		}
		// Residual miter on the swept network.
		verdict, cex := sw.prove(la, lb, satConflictBudget)
		switch verdict {
		case sat.Unsat:
			continue
		case sat.Sat:
			return Result{Method: "sat", Counterexample: cex, FailingOutput: o}, nil
		default:
			return Result{FailingOutput: o}, fmt.Errorf("cec: SAT budget exhausted on output %d", o)
		}
	}
	return Result{Equivalent: true, Method: "sat", FailingOutput: -1}, nil
}

// sweeper rebuilds the merged network bottom-up, merging nodes proven
// equivalent.
type sweeper struct {
	src    *aig.AIG
	dst    *aig.AIG   // swept network
	remap  []aig.Lit  // src node -> dst literal
	sim    [][]uint64 // dst node -> simulation words
	simW   int
	class  map[uint64]aig.Lit // normalized signature -> representative dst lit
	rng    *rand.Rand
	budget int64
}

func newSweeper(m *aig.AIG, opts Options) *sweeper {
	const simWords = 4
	sw := &sweeper{
		src:    m,
		dst:    aig.NewCap(m.NumPIs(), m.NumObjs()),
		remap:  make([]aig.Lit, m.NumObjs()),
		simW:   simWords,
		class:  make(map[uint64]aig.Lit, m.NumAnds()),
		rng:    rand.New(rand.NewSource(opts.Seed + 0xCEC)),
		budget: 2000,
	}
	sw.dst.EnableStrash()
	sw.sim = make([][]uint64, 1, m.NumObjs())
	sw.sim[0] = make([]uint64, simWords) // constant false
	for i := 1; i <= m.NumPIs(); i++ {
		w := make([]uint64, simWords)
		for j := range w {
			w[j] = sw.rng.Uint64()
		}
		sw.sim = append(sw.sim, w)
		sw.remap[i] = aig.MakeLit(int32(i), false)
		sw.registerClass(aig.MakeLit(int32(i), false))
	}
	sw.registerClass(aig.ConstFalse)
	return sw
}

func (sw *sweeper) mapLit(l aig.Lit) aig.Lit {
	return sw.remap[l.Var()].NotCond(l.IsCompl())
}

// simOf returns the simulation words of a dst literal.
func (sw *sweeper) simOf(l aig.Lit) []uint64 {
	base := sw.sim[l.Var()]
	if !l.IsCompl() {
		return base
	}
	out := make([]uint64, sw.simW)
	for i, w := range base {
		out[i] = ^w
	}
	return out
}

// signature returns the phase-normalized hash of a dst literal's simulation
// and the phase flag (true when the complement was hashed).
func (sw *sweeper) signature(l aig.Lit) (uint64, bool) {
	words := sw.simOf(l)
	phase := words[0]&1 != 0
	var h uint64 = 14695981039346656037
	for _, w := range words {
		if phase {
			w = ^w
		}
		h ^= w
		h *= 1099511628211
	}
	return h, phase
}

func (sw *sweeper) registerClass(l aig.Lit) {
	h, phase := sw.signature(l)
	if _, ok := sw.class[h]; !ok {
		sw.class[h] = l.NotCond(phase) // store the phase-true representative
	}
}

// run processes src nodes in topological order. The merged network carries
// its outputs as literal lists rather than POs, so every live node is swept.
func (sw *sweeper) run() {
	for _, id := range sw.src.TopoOrder(false) {
		f0 := sw.mapLit(sw.src.Fanin0(id))
		f1 := sw.mapLit(sw.src.Fanin1(id))
		before := sw.dst.NumObjs()
		lit := sw.dst.NewAnd(f0, f1)
		if sw.dst.NumObjs() > before {
			// Fresh node: simulate it.
			w := make([]uint64, sw.simW)
			s0 := sw.simOf(f0)
			s1 := sw.simOf(f1)
			for i := range w {
				w[i] = s0[i] & s1[i]
			}
			sw.sim = append(sw.sim, w)
			// Try to merge with the candidate class representative.
			h, phase := sw.signature(lit)
			if rep, ok := sw.class[h]; ok {
				cand := rep.NotCond(phase) // candidate equal literal
				if cand.Var() != lit.Var() && sameWords(sw.simOf(lit), sw.simOf(cand)) {
					if verdict, _ := sw.prove(lit, cand, sw.budget); verdict == sat.Unsat {
						sw.remap[id] = cand
						continue
					}
				}
			} else {
				sw.class[h] = lit.NotCond(phase)
			}
		}
		sw.remap[id] = lit
	}
}

func sameWords(x, y []uint64) bool {
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// prove runs a budgeted SAT check that la != lb is unsatisfiable on the
// swept network. On Sat it returns a counterexample over the PIs.
func (sw *sweeper) prove(la, lb aig.Lit, budget int64) (sat.Status, []bool) {
	s := sat.New()
	nodeVar := map[int32]int{}
	var encode func(root int32) int
	encode = func(root int32) int {
		if v, ok := nodeVar[root]; ok {
			return v
		}
		stack := []int32{root}
		for len(stack) > 0 {
			id := stack[len(stack)-1]
			if _, ok := nodeVar[id]; ok {
				stack = stack[:len(stack)-1]
				continue
			}
			if !sw.dst.IsAnd(id) {
				v := s.NewVar()
				nodeVar[id] = v
				if sw.dst.IsConst(id) {
					s.AddClause(sat.MkLit(v, true))
				}
				stack = stack[:len(stack)-1]
				continue
			}
			f0, f1 := sw.dst.Fanin0(id), sw.dst.Fanin1(id)
			v0, ok0 := nodeVar[f0.Var()]
			v1, ok1 := nodeVar[f1.Var()]
			if !ok0 {
				stack = append(stack, f0.Var())
				continue
			}
			if !ok1 {
				stack = append(stack, f1.Var())
				continue
			}
			v := s.NewVar()
			nodeVar[id] = v
			l0 := sat.MkLit(v0, f0.IsCompl())
			l1 := sat.MkLit(v1, f1.IsCompl())
			c := sat.MkLit(v, false)
			s.AddClause(c.Not(), l0)
			s.AddClause(c.Not(), l1)
			s.AddClause(c, l0.Not(), l1.Not())
			stack = stack[:len(stack)-1]
		}
		return nodeVar[root]
	}
	sla := sat.MkLit(encode(la.Var()), la.IsCompl())
	slb := sat.MkLit(encode(lb.Var()), lb.IsCompl())
	// Assert sla != slb.
	s.AddClause(sla, slb)
	s.AddClause(sla.Not(), slb.Not())
	s.ConflictBudget = budget
	st := s.Solve()
	if st != sat.Sat {
		return st, nil
	}
	cex := make([]bool, sw.dst.NumPIs())
	for i := range cex {
		if v, ok := nodeVar[int32(i+1)]; ok {
			cex[i] = s.Value(v)
		}
	}
	return st, cex
}
