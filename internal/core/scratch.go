package core

import "aigre/internal/aig"

// virtualLit marks a dry-run result that does not exist in the AIG yet.
const virtualLit = aig.Lit(0xFFFFFFFE)

// EvalScratch is the per-cone working memory of gain evaluation: MFFC
// membership, dry-run costing, and program building. Its methods reuse
// traversal-stamped arrays, so the per-node evaluation loops of rewriting,
// refactoring and resubstitution allocate nothing in steady state. A
// scratch value is not safe for concurrent use; a parallel kernel holds one
// per worker slot of its launch (gpu.Device.LaunchSlots).
//
// The marking protocol: each MffcMembers call claims a fresh traversal base
// b (trav advances by 4, so bases never collide with earlier cones or with
// the zero value of a grown array). mark[v] == b flags a cut leaf,
// b+1 an MFFC member, b+2 a member revived by a following DryRunCost call.
type EvalScratch struct {
	mark    []int32
	dec     []int32
	decMark []int32
	trav    int32
	stack   []int32
	members []int32
	results []aig.Lit
	created []int32
	words   []uint64 // Apply's revalidation tables
}

func (s *EvalScratch) ensure(n int) {
	if n <= len(s.mark) {
		return
	}
	c := 2 * len(s.mark)
	if c < n {
		c = n
	}
	// Fresh zeroed arrays; trav restarts above any stale zero stamps.
	s.mark = make([]int32, c)
	s.dec = make([]int32, c)
	s.decMark = make([]int32, c)
	s.trav = 0
}

// MffcMembers returns the MFFC members of root (root first), bounded below
// by the cut leaves: the dereference never crosses a leaf, so the set holds
// exactly the nodes that replacing the cone over those leaves would delete.
// With nil leaves the full MFFC is computed. Uses live fanout counts. The
// returned slice is valid until the next call; the member set stays recorded
// in the scratch for following InMffc and DryRunCost calls.
func (s *EvalScratch) MffcMembers(a *aig.AIG, root int32, leaves []int32) []int32 {
	s.ensure(a.NumObjs())
	s.trav += 4
	base := s.trav
	for _, l := range leaves {
		s.mark[l] = base
	}
	s.mark[root] = base + 1
	s.members = append(s.members[:0], root)
	st := append(s.stack[:0], root)
	for len(st) > 0 {
		cur := st[len(st)-1]
		st = st[:len(st)-1]
		for _, f := range [2]aig.Lit{a.Fanin0(cur), a.Fanin1(cur)} {
			v := f.Var()
			if !a.IsAnd(v) || s.mark[v] == base {
				continue
			}
			if s.decMark[v] != base {
				s.decMark[v] = base
				s.dec[v] = 0
			}
			s.dec[v]++
			if int(s.dec[v]) == a.FanoutCount(v) {
				s.mark[v] = base + 1
				s.members = append(s.members, v)
				st = append(st, v)
			}
		}
	}
	s.stack = st
	return s.members
}

// InMffc reports whether v belongs to the member set recorded by the last
// MffcMembers call (v must be a node of the network that call saw).
func (s *EvalScratch) InMffc(v int32) bool { return s.mark[v] == s.trav+1 }

// DryRunCost estimates how many new nodes building prog would create,
// counting structural-hash hits on existing nodes as free (DAG-aware
// evaluation, as in ABC's rewriting/refactoring gain). Ops whose operands do
// not exist yet always cost one node.
//
// The MFFC of the root being replaced is the member set recorded by the
// preceding MffcMembers call on this scratch: a structural hit on an MFFC
// node still resolves to the real literal (the node survives if reused), but
// it and every not-yet-revived MFFC node in its transitive fanin are charged
// one node each, because they would otherwise have been deleted. This
// mirrors ABC's dereference-before-counting and keeps gain = mffcSize - cost
// an exact lower bound on the area improvement. The call consumes the
// recorded set (members revived here stay revived), matching the one-shot
// evaluate-then-decide usage of the callers.
func (s *EvalScratch) DryRunCost(a *aig.AIG, prog Program, leaves []aig.Lit) int {
	base := s.trav
	results := s.resultsFor(len(prog.Ops))
	cost := 0
	st := s.stack[:0]
	for i, op := range prog.Ops {
		f0 := Resolve(op.A, leaves, results)
		f1 := Resolve(op.B, leaves, results)
		if f0.Regular() == virtualLit || f1.Regular() == virtualLit {
			cost++
			results[i] = virtualLit
			continue
		}
		lit, ok := a.Lookup(f0, f1)
		if !ok {
			cost++
			results[i] = virtualLit
			continue
		}
		results[i] = lit
		if s.mark[lit.Var()] != base+1 {
			continue
		}
		// Revive: the structural hit lands on an MFFC node; it and its
		// not-yet-revived MFFC fanin survive, each charged one node.
		st = append(st[:0], lit.Var())
		for len(st) > 0 {
			v := st[len(st)-1]
			st = st[:len(st)-1]
			if s.mark[v] != base+1 {
				continue
			}
			s.mark[v] = base + 2
			cost++
			st = append(st, a.Fanin0(v).Var(), a.Fanin1(v).Var())
		}
	}
	s.stack = st
	return cost
}

// BuildProgramAvoiding materializes prog in the AIG with structural hashing
// and returns the root literal. If a structural-hash hit reconstructs the
// node avoid itself (the node about to be replaced — substituting it would
// create a cycle), construction is abandoned: speculatively created nodes
// are removed (requires fanout tracking) and ok is false.
func (s *EvalScratch) BuildProgramAvoiding(a *aig.AIG, prog Program, leaves []aig.Lit, avoid int32) (lit aig.Lit, ok bool) {
	results := s.resultsFor(len(prog.Ops))
	created := s.created[:0]
	defer func() { s.created = created }()
	for i, op := range prog.Ops {
		before := a.NumObjs()
		results[i] = a.NewAnd(Resolve(op.A, leaves, results), Resolve(op.B, leaves, results))
		if a.NumObjs() > before {
			created = append(created, results[i].Var())
		}
		if results[i].Var() == avoid {
			for j := len(created) - 1; j >= 0; j-- {
				a.RemoveIfDangling(created[j])
			}
			return 0, false
		}
	}
	return Resolve(prog.Root, leaves, results), true
}

func (s *EvalScratch) resultsFor(n int) []aig.Lit {
	if cap(s.results) < n {
		s.results = make([]aig.Lit, n)
	}
	return s.results[:n]
}
