package rewrite

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/rcache"
)

// refScratch is the working memory of enumLocalCutsRef.
type refScratch struct {
	seen   [][4]int32 // leaf sets dequeued for the current node
	qbuf   []int32    // flat queue storage; item i is qbuf[qoff[i]:qoff[i+1]]
	qoff   []int32
	cutBuf []int32   // flat storage of accepted cuts
	cuts   [][]int32 // headers into cutBuf
}

// enumLocalCutsRef is enumLocalCuts as it was before the fixed-size leaf
// sets: every queue entry is built with append, then sorted by insertion,
// counted, deduplicated and checked against the dequeued sets. It is the
// oracle of TestEnumLocalCutsMatchesReference.
func enumLocalCutsRef(a *aig.AIG, n int32, maxCuts int, s *refScratch) [][]int32 {
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

// TestEnumLocalCutsMatchesReference walks a sequential rewriting pass over
// the 14 suite circuits and the deep/narrow network, with and without
// zero-gain replacements, and compares the cut list of every node, on the
// graph as the pass has edited it so far (deleted nodes, non-topological
// ids), with the reference's: same cuts, same order. The candidates and the
// modeled op counts are functions of that list.
func TestEnumLocalCutsMatchesReference(t *testing.T) {
	nets := []*aig.AIG{bench.DeepNarrow(8, 500)}
	for _, c := range bench.Suite(1) {
		nets = append(nets, c.Build())
	}
	for _, zeroGain := range []bool{false, true} {
		opts := Options{ZeroGain: zeroGain, Cache: rcache.New()}.normalized()
		for _, a := range nets {
			work := a.Rehash()
			work.EnableStrash()
			work.EnableFanouts()
			s, ref := new(evalScratch), new(refScratch)
			cuts, mismatches := 0, 0
			last := int32(work.NumObjs())
			for id := int32(work.NumPIs() + 1); id < last && mismatches < 5; id++ {
				if work.IsDeleted(id) {
					continue
				}
				want := enumLocalCutsRef(work, id, maxCutsPerNode, ref)
				got := enumLocalCuts(work, id, maxCutsPerNode, s)
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = slices.Equal(got[i].leaves(), want[i])
				}
				if !same {
					t.Errorf("%s (zero gain %v), node %d: cuts %v, reference %v", a.Name, zeroGain, id, got, want)
					mismatches++
				}
				cuts += len(want)
				if cand, ok, _ := evaluateNode(work, id, opts, s); ok {
					c := cand.forApply(id, opts.ZeroGain)
					s.es.Apply(work, &s.cs, &c, false)
				}
			}
			if cuts == 0 {
				t.Errorf("%s: no cuts enumerated", a.Name)
			}
		}
	}
}

// expandRef is leafSet.expand without its early reject: the leaves but the
// one at i, plus f0 and f1, sorted and deduplicated; ok when at most four.
func expandRef(c leafSet, i int, f0, f1 int32) (leafSet, bool) {
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
	check := func(c leafSet, i int, f0, f1 int32) {
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
