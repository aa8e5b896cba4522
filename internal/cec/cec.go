// Package cec implements combinational equivalence checking of AIG pairs,
// used to validate every optimization result (the paper reports "all the
// generated AIGs passed equivalence checking"). Three engines are layered:
// bit-parallel random simulation (fast refutation), exhaustive simulation
// (complete for small PI counts), and a SAT miter per output pair over a
// shared structurally-hashed network (complete in general, budgeted).
package cec

import (
	"fmt"
	"math/rand"

	"aigre/internal/aig"
)

// Options controls the checking effort.
type Options struct {
	// RandomRounds is the number of 64-pattern simulation rounds (default 16).
	RandomRounds int
	// ExhaustiveLimit is the maximum PI count for exhaustive simulation
	// (default 12; 2^12 patterns).
	ExhaustiveLimit int
	// SATConflictBudget bounds each per-output SAT call (default 200000
	// conflicts; Unknown results make Check return an error).
	SATConflictBudget int64
	// Seed for random simulation.
	Seed int64
}

func (o Options) normalized() Options {
	if o.RandomRounds == 0 {
		o.RandomRounds = 16
	}
	if o.ExhaustiveLimit == 0 {
		o.ExhaustiveLimit = 12
	}
	if o.SATConflictBudget == 0 {
		o.SATConflictBudget = 200000
	}
	return o
}

// Result reports the outcome of an equivalence check.
type Result struct {
	Equivalent bool
	// Method that decided the result: "interface", "simulation",
	// "exhaustive", "strash" or "sat".
	Method string
	// Counterexample holds PI values distinguishing the networks when
	// Equivalent is false (nil for interface mismatches).
	Counterexample []bool
	// FailingOutput is the index of a differing PO (-1 if not applicable).
	FailingOutput int
}

// Check decides whether the two AIGs implement the same functions.
func Check(a, b *aig.AIG, opts Options) (Result, error) {
	opts = opts.normalized()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return Result{Equivalent: false, Method: "interface", FailingOutput: -1}, nil
	}
	if a.NumPIs() == 0 {
		// Constant networks: evaluate both directly.
		va := evalConst(a)
		vb := evalConst(b)
		for i := range va {
			if va[i] != vb[i] {
				return Result{Method: "exhaustive", FailingOutput: i}, nil
			}
		}
		return Result{Equivalent: true, Method: "exhaustive", FailingOutput: -1}, nil
	}

	// Stage 1: random simulation.
	if res, refuted := randomRefute(a, b, opts); refuted {
		return res, nil
	}
	// Stage 2: exhaustive simulation for small PI counts.
	if a.NumPIs() <= opts.ExhaustiveLimit {
		return exhaustive(a, b)
	}
	// Stage 3: SAT miter with sweeping.
	res, err := satMiter(a, b, opts)
	if err == nil && !res.Equivalent && res.Counterexample != nil {
		// Defense in depth: a counterexample must actually distinguish the
		// networks; anything else indicates an internal inconsistency.
		va := a.EvalOnce(res.Counterexample)
		vb := b.EvalOnce(res.Counterexample)
		if res.FailingOutput >= 0 && va[res.FailingOutput] == vb[res.FailingOutput] {
			return res, fmt.Errorf("cec: internal error: counterexample does not distinguish output %d", res.FailingOutput)
		}
	}
	return res, err
}

// SampleRefute runs only the random-simulation stage as a cheap one-sided
// gate: it returns (res, true) when the networks are provably inequivalent,
// and (Result{}, false) when sampling found no mismatch — which is NOT a
// proof of equivalence. Interface mismatches refute immediately. The flow
// layer uses this to screen every pass output against its input without
// paying for a full check.
func SampleRefute(a, b *aig.AIG, rounds int, seed int64) (Result, bool) {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return Result{Method: "interface", FailingOutput: -1}, true
	}
	if a.NumPIs() == 0 {
		va, vb := evalConst(a), evalConst(b)
		for i := range va {
			if va[i] != vb[i] {
				return Result{Method: "exhaustive", FailingOutput: i}, true
			}
		}
		return Result{}, false
	}
	if rounds <= 0 {
		rounds = 4
	}
	return randomRefute(a, b, Options{RandomRounds: rounds, Seed: seed})
}

// randomRefute simulates both networks on the same random patterns and
// extracts a counterexample on mismatch.
func randomRefute(a, b *aig.AIG, opts Options) (Result, bool) {
	rng := rand.New(rand.NewSource(opts.Seed + 0x5eed))
	nPIs := a.NumPIs()
	w := opts.RandomRounds
	pats := make([]uint64, nPIs*w) // drawn PI by PI, one row of w words each
	for j := range pats {
		pats[j] = rng.Uint64()
	}
	ins := make([][]uint64, nPIs)
	for i := range ins {
		ins[i] = pats[i*w : (i+1)*w : (i+1)*w]
	}
	sa := a.Simulate(ins)
	sb := b.Simulate(ins)
	for o := range sa {
		for j := 0; j < w; j++ {
			if diff := sa[o][j] ^ sb[o][j]; diff != 0 {
				bit := uint(0)
				for diff>>bit&1 == 0 {
					bit++
				}
				cex := make([]bool, nPIs)
				for i := range cex {
					cex[i] = ins[i][j]>>bit&1 != 0
				}
				return Result{Method: "simulation", Counterexample: cex, FailingOutput: o}, true
			}
		}
	}
	return Result{}, false
}

// exhaustive simulates all 2^n input patterns.
func exhaustive(a, b *aig.AIG) (Result, error) {
	nPIs := a.NumPIs()
	total := 1 << nPIs
	// Pack patterns 64 at a time.
	words := (total + 63) / 64
	ins := make([][]uint64, nPIs)
	for i := range ins {
		v := make([]uint64, words)
		for m := 0; m < total; m++ {
			if m>>uint(i)&1 != 0 {
				v[m>>6] |= 1 << (uint(m) & 63)
			}
		}
		ins[i] = v
	}
	sa := a.Simulate(ins)
	sb := b.Simulate(ins)
	for o := range sa {
		for j := range sa[o] {
			mask := ^uint64(0)
			if j == words-1 && total%64 != 0 {
				mask = (uint64(1) << (uint(total) % 64)) - 1
			}
			if diff := (sa[o][j] ^ sb[o][j]) & mask; diff != 0 {
				bit := uint(0)
				for diff>>bit&1 == 0 {
					bit++
				}
				m := j*64 + int(bit)
				cex := make([]bool, nPIs)
				for i := range cex {
					cex[i] = m>>uint(i)&1 != 0
				}
				return Result{Method: "exhaustive", Counterexample: cex, FailingOutput: o}, nil
			}
		}
	}
	return Result{Equivalent: true, Method: "exhaustive", FailingOutput: -1}, nil
}

// evalConst evaluates a zero-PI network's PO values.
func evalConst(a *aig.AIG) []bool {
	vals := make(map[int32]bool, a.NumObjs())
	vals[0] = false
	for _, id := range a.TopoOrder(true) {
		f0, f1 := a.Fanin0(id), a.Fanin1(id)
		vals[id] = (vals[f0.Var()] != f0.IsCompl()) && (vals[f1.Var()] != f1.IsCompl())
	}
	out := make([]bool, a.NumPOs())
	for i, p := range a.POs() {
		out[i] = vals[p.Var()] != p.IsCompl()
	}
	return out
}

// copyInto strash-copies src into dst (sharing dst's PIs) and returns the
// PO literals.
func copyInto(dst, src *aig.AIG) []aig.Lit {
	mp := make([]aig.Lit, src.NumObjs())
	mp[0] = aig.ConstFalse
	for i := 1; i <= src.NumPIs(); i++ {
		mp[i] = aig.MakeLit(int32(i), false)
	}
	for _, id := range src.TopoOrder(true) {
		f0, f1 := src.Fanin0(id), src.Fanin1(id)
		mp[id] = dst.NewAnd(
			mp[f0.Var()].NotCond(f0.IsCompl()),
			mp[f1.Var()].NotCond(f1.IsCompl()),
		)
	}
	out := make([]aig.Lit, src.NumPOs())
	for i, p := range src.POs() {
		out[i] = mp[p.Var()].NotCond(p.IsCompl())
	}
	return out
}
