package cut

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/bench"
)

// refScratch is the working memory of cuts4Ref.
type refScratch struct {
	seen   [][4]int32 // leaf sets dequeued for the current node
	qbuf   []int32    // flat queue storage; item i is qbuf[qoff[i]:qoff[i+1]]
	qoff   []int32
	cutBuf []int32   // flat storage of accepted cuts
	cuts   [][]int32 // headers into cutBuf
}

// cuts4Ref is Cuts4 as it was before the fixed-size leaf sets: every queue
// entry is built with append, then sorted by insertion, counted, deduplicated
// and checked against the dequeued sets. It is the oracle of
// TestCuts4MatchesReference.
func cuts4Ref(a *aig.AIG, n int32, maxCuts int, s *refScratch) [][]int32 {
	s.seen = s.seen[:0]
	s.qbuf = append(s.qbuf[:0], a.Fanin0(n).Var(), a.Fanin1(n).Var())
	s.qoff = append(s.qoff[:0], 0, 2)
	s.cutBuf = s.cutBuf[:0]
	s.cuts = s.cuts[:0]
	head := 0
	for head < len(s.qoff)-1 && len(s.cuts) < maxCuts {
		cur := s.qbuf[s.qoff[head]:s.qoff[head+1]]
		head++
		sortInt32(cur)
		// Remove duplicates within the leaf set.
		ls := cur[:0]
		for i, v := range cur {
			if i == 0 || v != cur[i-1] {
				ls = append(ls, v)
			}
		}
		var k [4]int32
		copy(k[:], ls)
		if slices.Contains(s.seen, k) {
			continue
		}
		s.seen = append(s.seen, k)
		hasConst := len(ls) > 0 && ls[0] == 0
		if !hasConst && len(ls) >= 2 {
			off := len(s.cutBuf)
			s.cutBuf = append(s.cutBuf, ls...)
			s.cuts = append(s.cuts, s.cutBuf[off:len(s.cutBuf):len(s.cutBuf)])
		}
		// Expand each AND leaf.
		for i, v := range ls {
			if !a.IsAnd(v) {
				continue
			}
			off := len(s.qbuf)
			s.qbuf = append(s.qbuf, ls[:i]...)
			s.qbuf = append(s.qbuf, ls[i+1:]...)
			s.qbuf = append(s.qbuf, a.Fanin0(v).Var(), a.Fanin1(v).Var())
			// Bound before dedup: the union can shrink back under 4.
			if uniqueCount(s.qbuf[off:]) <= 4 {
				s.qoff = append(s.qoff, int32(len(s.qbuf)))
			} else {
				s.qbuf = s.qbuf[:off]
			}
		}
	}
	return s.cuts
}

// sortInt32 sorts tiny leaf sets (at most five entries) by insertion.
func sortInt32(v []int32) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// uniqueCount counts distinct values in a tiny slice.
func uniqueCount(v []int32) int {
	n := 0
	for i, x := range v {
		dup := false
		for _, y := range v[:i] {
			if x == y {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	return n
}

// rotate re-associates AND node n in place, (p & q) & r into p & (q & r),
// when its fanin0 is an uncomplemented AND node. The new inner node takes an
// id above every existing one and ReplaceNode deletes the old one once
// nothing else uses it, so a pass of rotations leaves what a rewriting pass
// leaves: deleted nodes and fanin ids above their fanouts'.
func rotate(a *aig.AIG, n int32) {
	f0, r := a.Fanin0(n), a.Fanin1(n)
	if f0.IsCompl() || !a.IsAnd(f0.Var()) {
		return
	}
	x := f0.Var()
	if lit := a.NewAnd(a.Fanin0(x), a.NewAnd(a.Fanin1(x), r)); lit.Var() != n {
		a.ReplaceNode(n, lit)
	}
}

// TestCuts4MatchesReference walks the 14 suite circuits and the deep/narrow
// network in id order, rotating every second (then every fifth) node in place
// as it goes, and compares the cut list of every live node, on the graph as
// edited so far (deleted nodes, non-topological ids), with the reference's:
// same cuts, same order. Rewriting's candidates and modeled op counts are
// functions of that list.
func TestCuts4MatchesReference(t *testing.T) {
	nets := []*aig.AIG{bench.DeepNarrow(8, 500)}
	for _, c := range bench.Suite(1) {
		nets = append(nets, c.Build())
	}
	deleted, backward := 0, 0
	for _, every := range []int32{2, 5} {
		for _, a := range nets {
			work := a.Rehash()
			work.EnableStrash()
			work.EnableFanouts()
			var s Scratch
			ref := new(refScratch)
			cuts, mismatches := 0, 0
			last := int32(work.NumObjs())
			for id := int32(work.NumPIs() + 1); id < last && mismatches < 5; id++ {
				if work.IsDeleted(id) {
					deleted++
					continue
				}
				if work.Fanin0(id).Var() > id || work.Fanin1(id).Var() > id {
					backward++
				}
				want := cuts4Ref(work, id, 8, ref)
				got := s.Cuts4(work, id, 8)
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = slices.Equal(got[i].Leaves(), want[i])
				}
				if !same {
					t.Errorf("%s (every %d), node %d: cuts %v, reference %v", a.Name, every, id, got, want)
					mismatches++
				}
				cuts += len(want)
				if id%every == 0 {
					rotate(work, id)
				}
			}
			if cuts == 0 {
				t.Errorf("%s: no cuts enumerated", a.Name)
			}
		}
	}
	if deleted == 0 || backward == 0 {
		t.Errorf("the rotations left %d deleted nodes and %d nodes with a higher-id fanin; want both > 0", deleted, backward)
	}
}

// expandRef is Set4.expand without its early reject: the leaves but the
// one at i, plus f0 and f1, sorted and deduplicated; ok when at most four.
func expandRef(c Set4, i int, f0, f1 int32) (Set4, bool) {
	var ids []int32
	for j, x := range c {
		if j != i && x >= 0 {
			ids = append(ids, x)
		}
	}
	ids = append(ids, f0, f1)
	slices.Sort(ids)
	ids = slices.Compact(ids)
	out := noLeaves
	if len(ids) > 4 {
		return out, false
	}
	copy(out[:], ids)
	return out, true
}

// TestExpandMatchesMerge checks expand's early reject of a four-leaf set
// gaining two new fanins against the plain merge: every leaf set over ids
// 0..7 (the empty one and -1 padding included) × every expanded index × every
// fanin pair over 0..8 (equal fanins and fanins already in the set included),
// then random sets over wide ids.
func TestExpandMatchesMerge(t *testing.T) {
	check := func(c Set4, i int, f0, f1 int32) {
		t.Helper()
		got, ok := c.expand(i, f0, f1)
		want, wantOK := expandRef(c, i, f0, f1)
		if ok != wantOK || ok && got != want {
			t.Fatalf("%v.expand(%d, %d, %d) = %v, %v; merge gives %v, %v", c, i, f0, f1, got, ok, want, wantOK)
		}
	}
	sets := 0
	for mask := range uint(1 << 8) {
		if bits.OnesCount(mask) > 4 {
			continue
		}
		c, n := noLeaves, 0
		for v := range int32(8) {
			if mask>>v&1 != 0 {
				c[n] = v
				n++
			}
		}
		sets++
		for i := -1; i < n; i++ {
			for f0 := range int32(9) {
				for f1 := range int32(9) {
					check(c, i, f0, f1)
				}
			}
		}
	}
	if sets != 163 {
		t.Fatalf("%d leaf sets enumerated, want 163 (at most four of eight ids)", sets)
	}
	rng := rand.New(rand.NewSource(1))
	for range 100000 {
		c, n := noLeaves, 1+rng.Intn(4)
		ids := rng.Perm(40)[:n]
		slices.Sort(ids)
		for k, v := range ids {
			c[k] = int32(v)
		}
		pick := func() int32 {
			if rng.Intn(2) == 0 {
				return c[rng.Intn(n)]
			}
			return int32(rng.Intn(40))
		}
		check(c, rng.Intn(n), pick(), pick())
	}
}

func TestEnumCuts4Basic(t *testing.T) {
	a, n3 := buildDiamond()
	cuts := EnumCuts4(a, 8)
	cs := cuts[n3.Var()]
	if len(cs) == 0 {
		t.Fatal("no cuts for root")
	}
	// Must contain the PI cut {a,b,c} with truth a&b&c, constant in the
	// fourth variable.
	found := false
	for _, c := range cs {
		if c.Leaves == (Set4{1, 2, 3, -1}) && c.TT == 0x8080 {
			found = true
		}
	}
	if !found {
		t.Errorf("PI cut with correct truth not found: %+v", cs)
	}
	for id := range int32(4) {
		if cuts[id] != nil {
			t.Errorf("node %d (constant or PI) has cuts %v", id, cuts[id])
		}
	}
}

func TestEnumCuts4TruthCorrect(t *testing.T) {
	// For random PI vectors, the node's value must equal TT applied to the
	// leaves' values.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 5, 60, 2)
		cuts := EnumCuts4(a, 8)
		for trial := 0; trial < 16; trial++ {
			in := make([]bool, a.NumPIs())
			for i := range in {
				in[i] = rng.Intn(2) == 0
			}
			vals := evalAll(a, in)
			bad := false
			a.ForEachAnd(func(id int32) {
				for _, c := range cuts[id] {
					m := 0
					for i, l := range c.Leaves.Leaves() {
						if vals[l] {
							m |= 1 << i
						}
					}
					bad = bad || (c.TT>>uint(m)&1 != 0) != vals[id]
				}
			})
			if bad {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestEnumCuts4Limit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := aig.Random(rng, 8, 200, 4)
	for _, limit := range []int{2, 4, 8} {
		cuts := EnumCuts4(a, limit)
		a.ForEachAnd(func(id int32) {
			if len(cuts[id]) > limit {
				t.Fatalf("node %d has %d cuts, limit %d", id, len(cuts[id]), limit)
			}
		})
	}
}

// TestEnumCuts4CountsEvaluatedCuts pins EnumCuts4 on multiplier to the number
// of cuts one rewriting evaluation canonizes there
// (rewrite.TestNpnCountsMatchEvaluatedCuts): the benchmark's cut.enum4 probe
// counts rewriting's cuts.
func TestEnumCuts4CountsEvaluatedCuts(t *testing.T) {
	n := 0
	for _, cs := range EnumCuts4(bench.Multiplier(32), 8) {
		n += len(cs)
	}
	if n != 76275 {
		t.Errorf("EnumCuts4 lists %d cuts on multiplier, rewriting evaluates 76275", n)
	}
}
