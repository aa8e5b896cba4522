package cut

import (
	"sync"

	"aigre/internal/aig"
	"aigre/internal/truth"
)

// Scratch is the working memory of cone evaluation: traversal-stamped node
// arrays instead of per-call maps, and wide truth tables from a
// per-leaf-count arena instead of truth.New. Tables returned by ConeTruth and
// KeyedTruth, and the walk ConeKey records, are owned by the scratch and
// valid only until its next call. A Scratch is not safe for concurrent use;
// a parallel kernel holds one per worker slot of its launch
// (gpu.Device.LaunchSlots).
type Scratch struct {
	stamp []int32 // node id -> trav when the node has a value this cone
	trav  int32
	val16 []uint16 // node value for the 16-bit path
	stack []int32

	// The walked cone (ConeKey, ConeTruth): its AND nodes in post-order,
	// and each node's number in it — leaf i is i, the AND nodes follow in
	// post-order, the constant is -1 — which also indexes tts, offset by one.
	post  []int32
	index []int32
	tts   []truth.TT

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
	if s.index != nil {
		s.index = make([]int32, c)
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
	s.walk(a, rootLit.Var(), leaves)
	return s.KeyedTruth(a, rootLit, leaves)
}

// KeyedTruth is ConeTruth for the cone the preceding ConeKey call walked,
// with that call's arguments: it evaluates the recorded post-order instead of
// traversing the AIG again, so a cache miss pays one walk, not two.
func (s *Scratch) KeyedTruth(a *aig.AIG, rootLit aig.Lit, leaves []int32) truth.TT {
	n := len(leaves)
	s.arenas[n].free = 0
	tts := append(s.tts[:0], s.allocTT(n).Fill(false))
	for i := range leaves {
		tts = append(tts, s.allocTT(n).SetVar(i))
	}
	for _, id := range s.post {
		f0, f1 := a.Fanin0(id), a.Fanin1(id)
		tts = append(tts, s.allocTT(n).AndCompl(
			tts[s.index[f0.Var()]+1], f0.IsCompl(),
			tts[s.index[f1.Var()]+1], f1.IsCompl()))
	}
	s.tts = tts
	res := tts[s.index[rootLit.Var()]+1]
	if rootLit.IsCompl() {
		// Complement into a fresh arena slot: the node's own table may be
		// shared with other fanouts inside the cone.
		return s.allocTT(n).Not(res)
	}
	return res
}

const (
	// coneKeyMarker opens every structural key. A functional rcache key opens
	// with its leaf count, at most truth.MaxVars, so the two never alias.
	coneKeyMarker = 0xC5
	// constIndex is the operand index of the constant, whose number -1
	// wraps to it in 16 bits; leaves and AND nodes take 0..constIndex-1, so
	// a key indexes at most that many.
	constIndex = 1<<15 - 1
)

// ConeKey appends to dst an exact structural encoding of the cone of rootLit
// over leaves and returns it. The header is coneKeyMarker, the leaf count and
// the root's complement bit. Then each AND node of the cone follows in
// depth-first post-order (fanin0 first, the traversal of ConeTruth) as two
// little-endian 16-bit operand codes index<<1|complement, where leaf i has
// index i, the cone's AND nodes n, n+1, ... in emission order, and the
// constant constIndex. The root is the last node emitted; a root that is a
// leaf or the constant emits no node and appends its own code instead.
//
// Equal keys describe the same DAG over the same leaf order, hence the same
// function. ConeKey returns nil when the cone has more leaves plus AND nodes
// than 16-bit codes index; the walk is recorded either way, for KeyedTruth.
// Escaping cones panic as in ConeTruth.
func (s *Scratch) ConeKey(a *aig.AIG, rootLit aig.Lit, leaves []int32, dst []byte) []byte {
	root := rootLit.Var()
	s.walk(a, root, leaves)
	if len(leaves)+len(s.post) > constIndex {
		return nil
	}
	compl := byte(0)
	if rootLit.IsCompl() {
		compl = 1
	}
	dst = append(dst, coneKeyMarker, byte(len(leaves)), compl)
	if len(s.post) == 0 {
		return s.appendCode(dst, aig.MakeLit(root, false))
	}
	for _, id := range s.post {
		dst = s.appendCode(s.appendCode(dst, a.Fanin0(id)), a.Fanin1(id))
	}
	return dst
}

// appendCode appends the 16-bit operand code of l within the walked cone.
// The constant's number -1 wraps to constIndex.
func (s *Scratch) appendCode(dst []byte, l aig.Lit) []byte {
	c := uint16(s.index[l.Var()])<<1 | uint16(l&1)
	return append(dst, byte(c), byte(c>>8))
}

// walk records in s.post the AND nodes of root's cone over leaves in
// depth-first post-order, fanin0 first, and numbers the constant, the leaves
// and those nodes in s.index. It panics when the cone escapes the leaf
// boundary.
func (s *Scratch) walk(a *aig.AIG, root int32, leaves []int32) {
	s.ensure(a.NumObjs())
	if s.index == nil {
		s.index = make([]int32, len(s.stamp))
	}
	s.trav++
	s.post = s.post[:0]
	s.stamp[0] = s.trav
	s.index[0] = -1
	for i, l := range leaves {
		s.stamp[l] = s.trav
		s.index[l] = int32(i)
	}
	if s.stamp[root] == s.trav {
		return
	}
	next := int32(len(leaves))
	st := append(s.stack[:0], root)
	for len(st) > 0 {
		cur := st[len(st)-1]
		if s.stamp[cur] == s.trav {
			st = st[:len(st)-1]
			continue
		}
		if !a.IsAnd(cur) {
			s.stack = st
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
		s.stamp[cur] = s.trav
		s.index[cur] = next
		next++
		s.post = append(s.post, cur)
		st = st[:len(st)-1]
	}
	s.stack = st
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
