package cut

import (
	"math/rand"
	"testing"

	"aigre/internal/aig"
)

// TestScratchConeTruthMatchesMapVersion checks the scratch-based cone
// evaluation against the allocating reference implementation, bit for bit —
// the cache keys on these words, so any divergence would split cache entries
// or, worse, alias distinct functions.
func TestScratchConeTruthMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewScratch()
	for trial := 0; trial < 30; trial++ {
		a := aig.Random(rng, 8, 200, 4).Rehash()
		a.EnableFanouts()
		rc := NewReconv(a)
		for id := int32(a.NumPIs() + 1); id < int32(a.NumObjs()); id++ {
			if !a.IsAnd(id) || a.IsDeleted(id) {
				continue
			}
			leaves := rc.Cut(id, 8)
			if len(leaves) < 2 {
				continue
			}
			for _, neg := range []bool{false, true} {
				lit := aig.MakeLit(id, neg)
				want := refConeTruth(a, lit, leaves)
				got := s.ConeTruth(a, lit, leaves)
				if got.NVars != want.NVars || len(got.Words) != len(want.Words) {
					t.Fatalf("shape mismatch: %d/%d vars", got.NVars, want.NVars)
				}
				for w := range want.Words {
					if got.Words[w] != want.Words[w] {
						t.Fatalf("node %d word %d: scratch %016x, reference %016x", id, w, got.Words[w], want.Words[w])
					}
				}
			}
			if len(leaves) <= 4 {
				want16, wantOK := refConeTruth16(a, aig.MakeLit(id, false), leaves)
				got16, gotOK := s.ConeTruth16(a, aig.MakeLit(id, false), leaves)
				if want16 != got16 || wantOK != gotOK {
					t.Fatalf("node %d: ConeTruth16 scratch (%04x,%v) vs reference (%04x,%v)",
						id, got16, gotOK, want16, wantOK)
				}
			}
		}
	}
}

func TestScratchConeTruth16RejectsEscapingCone(t *testing.T) {
	a := aig.New(3)
	a.EnableStrash()
	n1 := a.NewAnd(a.PI(0), a.PI(1))
	n2 := a.NewAnd(n1, a.PI(2))
	a.AddPO(n2)
	s := NewScratch()
	// Leaves {n1} do not bound the cone of n2 (PI 2 escapes).
	if _, ok := s.ConeTruth16(a, n2, []int32{n1.Var()}); ok {
		t.Error("escaping cone accepted")
	}
	// A proper cut evaluates fine right after the failed attempt.
	if tt, ok := s.ConeTruth16(a, n2, []int32{n1.Var(), a.PI(2).Var()}); !ok || tt != 0x8888 {
		t.Errorf("valid cut after failure: (%04x, %v), want (8888, true)", tt, ok)
	}
}

func TestScratchValidCut(t *testing.T) {
	a := aig.New(4)
	a.EnableStrash()
	n1 := a.NewAnd(a.PI(0), a.PI(1))
	n2 := a.NewAnd(a.PI(2), a.PI(3))
	n3 := a.NewAnd(n1, n2)
	a.AddPO(n3)
	s := NewScratch()
	if !s.ValidCut(a, n3.Var(), []int32{n1.Var(), n2.Var()}, 16) {
		t.Error("valid cut rejected")
	}
	if s.ValidCut(a, n3.Var(), []int32{n1.Var()}, 16) {
		t.Error("escaping cut accepted")
	}
	if s.ValidCut(a, n3.Var(), []int32{n1.Var(), n2.Var()}, 0) {
		t.Error("budget 0 must reject a cut with internal nodes")
	}
}
