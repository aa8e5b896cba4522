// Package sat implements a small CDCL (conflict-driven clause learning) SAT
// solver: two-literal watching, first-UIP conflict analysis with clause
// learning, VSIDS-style decision activities, phase saving, and geometric
// restarts. It is the decision engine behind the combinational equivalence
// checker (package cec) that validates every optimization result, standing
// in for the external checker the paper uses (see DESIGN.md).
package sat

// Lit is a solver literal: 2*var + sign (sign 1 = negated). Variables are
// 0-based.
type Lit int32

// MkLit builds a literal.
func MkLit(v int, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// Var returns the literal's variable.
func (l Lit) Var() int { return int(l >> 1) }

// IsNeg reports whether the literal is negated.
func (l Lit) IsNeg() bool { return l&1 != 0 }

// Not complements the literal.
func (l Lit) Not() Lit { return l ^ 1 }

type lbool int8

const (
	lUndef lbool = iota
	lTrue
	lFalse
)

// Status is the result of Solve.
type Status int

const (
	// Unknown means the conflict budget was exhausted.
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the instance is unsatisfiable.
	Unsat
)

type clause struct {
	lits    []Lit
	learned bool
	act     float64
}

// Solver is a CDCL SAT solver. Create with New, add variables and clauses,
// then call Solve.
type Solver struct {
	clauses  []*clause
	learned  []*clause
	watches  [][]*clause // literal -> watching clauses
	assign   []lbool     // variable -> value
	level    []int32     // variable -> decision level
	reason   []*clause   // variable -> implying clause
	activity []float64
	phase    []bool // saved phases
	trail    []Lit
	trailLim []int32 // decision-level boundaries in trail
	qhead    int
	varInc   float64
	claInc   float64
	order    []int // lazily maintained decision candidates (simple max scan)

	// ConflictBudget bounds the search (0 = unlimited). When exceeded,
	// Solve returns Unknown.
	ConflictBudget int64
	conflicts      int64
	unsat          bool // top-level conflict detected during AddClause
}

// New creates an empty solver.
func New() *Solver {
	return &Solver{varInc: 1, claInc: 1}
}

// NewVar adds a fresh variable and returns its index.
func (s *Solver) NewVar() int {
	v := len(s.assign)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, nil)
	s.activity = append(s.activity, 0)
	s.phase = append(s.phase, false)
	s.watches = append(s.watches, nil, nil)
	return v
}

func (s *Solver) valueLit(l Lit) lbool {
	v := s.assign[l.Var()]
	if v == lUndef {
		return lUndef
	}
	if l.IsNeg() {
		if v == lTrue {
			return lFalse
		}
		return lTrue
	}
	return v
}

// AddClause adds a clause. Returns false when the formula became trivially
// unsatisfiable at the top level.
func (s *Solver) AddClause(lits ...Lit) bool {
	if s.unsat {
		return false
	}
	// Simplify: drop duplicate/false literals, detect tautologies.
	seen := map[Lit]bool{}
	out := make([]Lit, 0, len(lits))
	for _, l := range lits {
		if seen[l.Not()] {
			return true // tautology
		}
		if seen[l] {
			continue
		}
		switch s.valueLit(l) {
		case lTrue:
			return true // already satisfied at level 0
		case lFalse:
			if s.level[l.Var()] == 0 {
				continue // permanently false
			}
		}
		seen[l] = true
		out = append(out, l)
	}
	switch len(out) {
	case 0:
		s.unsat = true
		return false
	case 1:
		if !s.enqueue(out[0], nil) {
			s.unsat = true
			return false
		}
		if s.propagate() != nil {
			s.unsat = true
			return false
		}
		return true
	}
	c := &clause{lits: out}
	s.clauses = append(s.clauses, c)
	s.watch(c)
	return true
}

func (s *Solver) watch(c *clause) {
	s.watches[c.lits[0].Not()] = append(s.watches[c.lits[0].Not()], c)
	s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
}

func (s *Solver) decisionLevel() int32 { return int32(len(s.trailLim)) }

func (s *Solver) enqueue(l Lit, from *clause) bool {
	switch s.valueLit(l) {
	case lTrue:
		return true
	case lFalse:
		return false
	}
	v := l.Var()
	if l.IsNeg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.phase[v] = !l.IsNeg()
	s.trail = append(s.trail, l)
	return true
}

// propagate performs unit propagation; returns a conflicting clause or nil.
func (s *Solver) propagate() *clause {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p is true
		s.qhead++
		ws := s.watches[p]
		s.watches[p] = nil
		for i := 0; i < len(ws); i++ {
			c := ws[i]
			// Ensure the false literal is lits[1].
			if c.lits[0].Not() == p {
				c.lits[0], c.lits[1] = c.lits[1], c.lits[0]
			}
			if s.valueLit(c.lits[0]) == lTrue {
				s.watches[p] = append(s.watches[p], c)
				continue
			}
			// Find a new watch.
			found := false
			for k := 2; k < len(c.lits); k++ {
				if s.valueLit(c.lits[k]) != lFalse {
					c.lits[1], c.lits[k] = c.lits[k], c.lits[1]
					s.watches[c.lits[1].Not()] = append(s.watches[c.lits[1].Not()], c)
					found = true
					break
				}
			}
			if found {
				continue
			}
			// Clause is unit or conflicting.
			s.watches[p] = append(s.watches[p], c)
			if !s.enqueue(c.lits[0], c) {
				// Conflict: restore remaining watchers.
				s.watches[p] = append(s.watches[p], ws[i+1:]...)
				s.qhead = len(s.trail)
				return c
			}
		}
	}
	return nil
}

// analyze performs first-UIP conflict analysis, returning the learned
// clause (asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl *clause) ([]Lit, int32) {
	learnt := []Lit{0} // slot for the asserting literal
	seen := make(map[int]bool)
	counter := 0
	var p Lit = -1
	idx := len(s.trail) - 1
	for {
		s.bumpClause(confl)
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal slot of the reason
		}
		for _, q := range confl.lits[start:] {
			v := q.Var()
			if seen[v] || s.level[v] == 0 {
				continue
			}
			seen[v] = true
			s.bumpVar(v)
			if s.level[v] == s.decisionLevel() {
				counter++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Find the next literal on the trail at the current level.
		for !seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		seen[p.Var()] = false
		counter--
		idx--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()
	// Backtrack level: highest level among the other literals.
	var back int32
	for _, q := range learnt[1:] {
		if s.level[q.Var()] > back {
			back = s.level[q.Var()]
		}
	}
	return learnt, back
}

func (s *Solver) bumpVar(v int) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
}

func (s *Solver) bumpClause(c *clause) {
	if c == nil || !c.learned {
		return
	}
	c.act += s.claInc
	if c.act > 1e20 {
		for _, lc := range s.learned {
			lc.act *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) backtrack(level int32) {
	if s.decisionLevel() <= level {
		return
	}
	bound := s.trailLim[level]
	for i := len(s.trail) - 1; i >= int(bound); i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = nil
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:level]
	s.qhead = len(s.trail)
}

// decide picks the unassigned variable with maximum activity.
func (s *Solver) decide() (Lit, bool) {
	best, bestAct := -1, -1.0
	for v := range s.assign {
		if s.assign[v] == lUndef && s.activity[v] > bestAct {
			best, bestAct = v, s.activity[v]
		}
	}
	if best < 0 {
		return 0, false
	}
	return MkLit(best, !s.phase[best]), true
}

// Solve runs the CDCL search.
func (s *Solver) Solve() Status {
	return s.SolveAssuming(nil)
}

// SolveAssuming runs the search under the given assumptions (checked as
// level-stacked decisions; conflicting assumptions yield Unsat).
func (s *Solver) SolveAssuming(assumptions []Lit) Status {
	if s.unsat {
		return Unsat
	}
	if c := s.propagate(); c != nil {
		return Unsat
	}
	restartLimit := int64(100)
	conflictsAtRestart := int64(0)
	for {
		confl := s.propagate()
		if confl != nil {
			s.conflicts++
			conflictsAtRestart++
			if s.decisionLevel() == int32(len(assumptions)) {
				// Conflict under assumptions only (or at the root).
				if len(assumptions) == 0 {
					s.unsat = true
				}
				s.backtrack(0)
				return Unsat
			}
			learnt, back := s.analyze(confl)
			if back < int32(len(assumptions)) {
				back = int32(len(assumptions))
				// The learned clause may be falsified at the assumption
				// level; re-checked by propagate after enqueue below.
			}
			s.backtrack(back)
			if len(learnt) == 1 {
				s.backtrack(0)
				if !s.enqueue(learnt[0], nil) {
					s.unsat = true
					return Unsat
				}
				// Re-apply assumptions from scratch next iteration.
				if len(assumptions) > 0 {
					continue
				}
			} else {
				c := &clause{lits: learnt, learned: true}
				s.learned = append(s.learned, c)
				s.watch(c)
				if !s.enqueue(learnt[0], c) {
					s.backtrack(0)
					if len(assumptions) == 0 {
						s.unsat = true
					}
					return Unsat
				}
			}
			s.varInc /= 0.95
			s.claInc /= 0.999
			if s.ConflictBudget > 0 && s.conflicts > s.ConflictBudget {
				s.backtrack(0)
				return Unknown
			}
			if conflictsAtRestart >= restartLimit {
				conflictsAtRestart = 0
				restartLimit = restartLimit * 3 / 2
				s.backtrack(int32(len(assumptions)))
			}
			continue
		}
		// Apply pending assumptions as decisions.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.valueLit(a) {
			case lTrue:
				// Already satisfied: open an empty level to keep indexing.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
			case lFalse:
				s.backtrack(0)
				return Unsat
			default:
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				s.enqueue(a, nil)
			}
			continue
		}
		l, ok := s.decide()
		if !ok {
			return Sat // all variables assigned
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.enqueue(l, nil)
	}
}

// Value returns the model value of variable v after Sat.
func (s *Solver) Value(v int) bool { return s.assign[v] == lTrue }
