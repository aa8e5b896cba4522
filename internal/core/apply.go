package core

import (
	"slices"

	"aigre/internal/aig"
	"aigre/internal/cut"
	"aigre/internal/truth"
)

// Candidate is one in-place replacement an engine found for Root: Prog over
// the Inputs literals (cut leaves, the constant, or resubstitution divisors)
// computes Root's function over the cut Leaves seen at evaluation. ZeroGain
// accepts a revalidated gain of zero.
type Candidate struct {
	Root     int32
	Leaves   []int32
	Inputs   []aig.Lit
	Prog     Program
	ZeroGain bool
}

// Outcome is what Apply did with a candidate.
type Outcome uint8

const (
	Stale    Outcome = iota // a node it reads is gone, or revalidation failed
	Kept                    // it holds, but building it reproduced or hit the root
	Replaced                // the root was replaced by the built program
)

// Apply builds c's program on work with structural hashing, avoiding the
// root, and substitutes it for the root: the one host replacement step of
// every in-place engine. work needs strash and live fanouts (EditInPlace's
// working copy). A sequential engine evaluates right before applying and
// passes revalidate false; an engine whose candidates were evaluated on an
// earlier version of work ([9]'s loop) passes true, and Apply then requires
//  1. the leaves still bound the root's cone;
//  2. the program over the inputs still computes the root's function over
//     the leaves; an input outside the leaves must not reach the root, which
//     is the cycle guard;
//  3. the recomputed gain, MFFC over the leaves minus the dry-run cost, is
//     positive, or zero with c.ZeroGain.
func (s *EvalScratch) Apply(work *aig.AIG, cs *cut.Scratch, c *Candidate, revalidate bool) Outcome {
	if work.IsDeleted(c.Root) || slices.ContainsFunc(c.Leaves, work.IsDeleted) ||
		slices.ContainsFunc(c.Inputs, func(l aig.Lit) bool { return work.IsDeleted(l.Var()) }) ||
		revalidate && !s.holds(work, cs, c) {
		return Stale
	}
	newRoot, ok := s.BuildProgramAvoiding(work, c.Prog, c.Inputs, c.Root)
	if !ok || newRoot.Var() == c.Root {
		return Kept
	}
	work.ReplaceNode(c.Root, newRoot)
	return Replaced
}

// holds checks Apply's three revalidation rules for c on work.
func (s *EvalScratch) holds(work *aig.AIG, cs *cut.Scratch, c *Candidate) bool {
	// Rule 2's tables: the constant, one per input, one per op. A leaf or
	// constant input is a projection; a divisor's walk avoids the root.
	ni, w := len(c.Inputs), truth.WordCount(len(c.Leaves))
	if k := (1 + ni + len(c.Prog.Ops)) * w; cap(s.words) < k {
		s.words = make([]uint64, k)
	}
	tt := func(i int) truth.TT { return truth.TT{NVars: len(c.Leaves), Words: s.words[i*w : (i+1)*w]} }
	tt(0).Fill(false)
	for i, in := range c.Inputs {
		t := tt(1 + i)
		if j := slices.Index(c.Leaves, in.Var()); j >= 0 {
			t.SetVar(j)
		} else if in.Var() == 0 {
			t.Fill(false)
		} else if f, ok := cs.CutTruth(work, in.Regular(), c.Leaves, c.Root); ok {
			t.Copy(f)
		} else {
			return false
		}
		if in.IsCompl() {
			t.Not(t)
		}
	}
	ref := func(r Ref) truth.TT {
		switch r.Kind() {
		case refLeaf:
			return tt(1 + r.Index())
		case refOp:
			return tt(1 + ni + r.Index())
		}
		return tt(0)
	}
	for i, op := range c.Prog.Ops {
		tt(1+ni+i).AndCompl(ref(op.A), op.A.IsCompl(), ref(op.B), op.B.IsCompl())
	}
	// Rules 1 and 2: the root's function over the leaves (complemented as the
	// program's root is) is the program's. Walked last: the table is cs's.
	f, ok := cs.CutTruth(work, aig.MakeLit(c.Root, c.Prog.Root.IsCompl()), c.Leaves, -1)
	if !ok || !ref(c.Prog.Root).Equal(f) {
		return false
	}
	// Rule 3.
	gain := len(s.MffcMembers(work, c.Root, c.Leaves)) - s.DryRunCost(work, c.Prog, c.Inputs)
	return gain > 0 || (gain == 0 && c.ZeroGain)
}
