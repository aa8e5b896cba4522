package cut

import (
	"sync"

	"aigre/internal/aig"
	"aigre/internal/truth"
)

// Scratch is the working memory of cone evaluation: traversal-stamped node
// arrays instead of per-call maps, and wide truth tables from a
// per-leaf-count arena instead of truth.New. Results returned by ConeTruth
// are owned by the scratch and valid only until its next call. A Scratch is
// not safe for concurrent use; parallel kernels draw one per worker from a
// sync.Pool.
type Scratch struct {
	stamp  []int32 // node id -> trav when the node has a value this cone
	trav   int32
	val16  []uint16   // node value for the 16-bit path
	nodeTT []truth.TT // node value for the wide path
	stack  []int32

	// arenas[n] recycles truth tables for n-leaf cones. Reconvergence cut
	// sizes vary call to call, so one arena per leaf count keeps reuse
	// effective without reallocation churn.
	arenas [truth.MaxVars + 1]ttArena
}

type ttArena struct {
	free int
	tts  [][]uint64
}

// NewScratch returns an empty scratch; arrays grow on first use.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) ensure(n int) {
	if n <= len(s.stamp) {
		return
	}
	c := 2 * len(s.stamp)
	if c < n {
		c = n
	}
	s.stamp = make([]int32, c)
	s.trav = 0
	if s.val16 != nil {
		s.val16 = make([]uint16, c)
	}
	if s.nodeTT != nil {
		s.nodeTT = make([]truth.TT, c)
	}
}

func (s *Scratch) allocTT(n int) truth.TT {
	ar := &s.arenas[n]
	if ar.free < len(ar.tts) {
		w := ar.tts[ar.free]
		ar.free++
		return truth.TT{NVars: n, Words: w}
	}
	w := make([]uint64, truth.WordCount(n))
	ar.tts = append(ar.tts, w)
	ar.free++
	return truth.TT{NVars: n, Words: w}
}

// ConeTruth16 evaluates the function of rootLit over at most four leaves as
// a 16-bit truth table (leaf i is variable i), the fast path for rewriting.
// ok is false when the cone escapes the leaf boundary (the leaves do not
// form a cut). No allocation in steady state.
func (s *Scratch) ConeTruth16(a *aig.AIG, rootLit aig.Lit, leaves []int32) (uint16, bool) {
	var leafTT = [4]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}
	s.ensure(a.NumObjs())
	if s.val16 == nil {
		s.val16 = make([]uint16, len(s.stamp))
	}
	s.trav++
	s.stamp[0] = s.trav
	s.val16[0] = 0
	count := 1
	for i, l := range leaves {
		if s.stamp[l] != s.trav {
			count++
		}
		s.stamp[l] = s.trav
		s.val16[l] = leafTT[i]
	}
	root := rootLit.Var()
	// Stored back on every return; a deferred closure per call is measurable
	// on this path.
	st := s.stack[:0]
	if s.stamp[root] != s.trav {
		st = append(st, root)
		for len(st) > 0 {
			cur := st[len(st)-1]
			if s.stamp[cur] == s.trav {
				st = st[:len(st)-1]
				continue
			}
			if !a.IsAnd(cur) {
				s.stack = st
				return 0, false // reached a PI outside the cut
			}
			f0, f1 := a.Fanin0(cur), a.Fanin1(cur)
			if s.stamp[f0.Var()] != s.trav {
				st = append(st, f0.Var())
				continue
			}
			if s.stamp[f1.Var()] != s.trav {
				st = append(st, f1.Var())
				continue
			}
			t0, t1 := s.val16[f0.Var()], s.val16[f1.Var()]
			if f0.IsCompl() {
				t0 = ^t0
			}
			if f1.IsCompl() {
				t1 = ^t1
			}
			s.val16[cur] = t0 & t1
			s.stamp[cur] = s.trav
			st = st[:len(st)-1]
			count++
			if count > 4096 {
				s.stack = st
				return 0, false // runaway cone: not a valid small cut
			}
		}
	}
	s.stack = st
	res := s.val16[root]
	if rootLit.IsCompl() {
		res = ^res
	}
	return res, true
}

// ConeTruth evaluates the function of rootLit over the given leaves: leaf i
// is variable i. Every path from root to a PI must pass through a leaf
// (otherwise the function would depend on signals outside the leaf set, and
// ConeTruth panics; the constant node is permitted and evaluates to false).
// No allocation in steady state: the returned table is owned by the scratch
// — callers must copy anything they keep past the next call.
func (s *Scratch) ConeTruth(a *aig.AIG, rootLit aig.Lit, leaves []int32) truth.TT {
	n := len(leaves)
	s.ensure(a.NumObjs())
	if s.nodeTT == nil {
		s.nodeTT = make([]truth.TT, len(s.stamp))
	}
	s.trav++
	s.arenas[n].free = 0
	s.stamp[0] = s.trav
	s.nodeTT[0] = s.allocTT(n).Fill(false)
	for i, l := range leaves {
		s.stamp[l] = s.trav
		s.nodeTT[l] = s.allocTT(n).SetVar(i)
	}
	root := rootLit.Var()
	st := s.stack[:0]
	if s.stamp[root] != s.trav {
		st = append(st, root)
		for len(st) > 0 {
			cur := st[len(st)-1]
			if s.stamp[cur] == s.trav {
				st = st[:len(st)-1]
				continue
			}
			if !a.IsAnd(cur) {
				panic("cut: cone escapes the leaf boundary")
			}
			f0, f1 := a.Fanin0(cur), a.Fanin1(cur)
			if s.stamp[f0.Var()] != s.trav {
				st = append(st, f0.Var())
				continue
			}
			if s.stamp[f1.Var()] != s.trav {
				st = append(st, f1.Var())
				continue
			}
			s.nodeTT[cur] = s.allocTT(n).AndCompl(
				s.nodeTT[f0.Var()], f0.IsCompl(),
				s.nodeTT[f1.Var()], f1.IsCompl())
			s.stamp[cur] = s.trav
			st = st[:len(st)-1]
		}
	}
	s.stack = st
	res := s.nodeTT[root]
	if rootLit.IsCompl() {
		// Complement into a fresh arena slot: the node's own table may be
		// shared with other fanouts inside the cone.
		return s.allocTT(n).Not(res)
	}
	return res
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// ConeTruth is Scratch.ConeTruth for callers without a scratch of their own:
// it borrows a pooled one and returns a copy the caller owns.
func ConeTruth(a *aig.AIG, rootLit aig.Lit, leaves []int32) truth.TT {
	s := scratchPool.Get().(*Scratch)
	defer scratchPool.Put(s)
	return s.ConeTruth(a, rootLit, leaves).Clone()
}

// ValidCut reports whether every path from root toward the PIs crosses the
// leaf set, visiting at most budget AND nodes — the revalidation used by
// sequential replacement, without the per-call maps.
func (s *Scratch) ValidCut(a *aig.AIG, root int32, leaves []int32, budget int) bool {
	s.ensure(a.NumObjs())
	s.trav++
	for _, l := range leaves {
		s.stamp[l] = s.trav
	}
	count := 0
	st := append(s.stack[:0], root)
	for len(st) > 0 {
		cur := st[len(st)-1]
		st = st[:len(st)-1]
		if s.stamp[cur] == s.trav {
			continue
		}
		if !a.IsAnd(cur) {
			s.stack = st
			return false // escaped to a PI or constant
		}
		s.stamp[cur] = s.trav
		count++
		if count > budget {
			s.stack = st
			return false
		}
		st = append(st, a.Fanin0(cur).Var(), a.Fanin1(cur).Var())
	}
	s.stack = st
	return true
}
