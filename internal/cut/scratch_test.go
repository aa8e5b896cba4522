package cut

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/bench"
)

// TestScratchConeTruthMatchesMapVersion checks the scratch-based cone
// evaluation against the allocating reference implementation, bit for bit —
// the cache keys on these words, so any divergence would split cache entries
// or, worse, alias distinct functions.
func TestScratchConeTruthMatchesMapVersion(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := new(Scratch)
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
				if got, ok := s.CutTruth(a, lit, leaves, -1); !ok || !slices.Equal(got.Words, want.Words) {
					t.Fatalf("node %d: CutTruth (%v, %v), reference %v", id, got, ok, want)
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
	s := new(Scratch)
	// Leaves {n1} do not bound the cone of n2 (PI 2 escapes).
	if _, ok := s.ConeTruth16(a, n2, []int32{n1.Var()}); ok {
		t.Error("escaping cone accepted")
	}
	// A proper cut evaluates fine right after the failed attempt.
	if tt, ok := s.ConeTruth16(a, n2, []int32{n1.Var(), a.PI(2).Var()}); !ok || tt != 0x8888 {
		t.Errorf("valid cut after failure: (%04x, %v), want (8888, true)", tt, ok)
	}
}

// TestConeTruth16IgnoresUnusedVariables checks that a table over k < 4
// leaves does not depend on variables k..3, so rewriting canonizes it as is.
func TestConeTruth16IgnoresUnusedVariables(t *testing.T) {
	// Negative-cofactor masks of variables 0..3.
	masks := [4]uint16{0x5555, 0x3333, 0x0F0F, 0x00FF}
	rng := rand.New(rand.NewSource(11))
	s := new(Scratch)
	checked := 0
	for trial := 0; trial < 20; trial++ {
		a := aig.Random(rng, 6, 150, 4).Rehash()
		a.EnableFanouts()
		rc := NewReconv(a)
		for id := int32(a.NumPIs() + 1); id < int32(a.NumObjs()); id++ {
			if !a.IsAnd(id) || a.IsDeleted(id) {
				continue
			}
			for size := 2; size <= 4; size++ {
				leaves := rc.Cut(id, size)
				if len(leaves) >= 4 {
					continue
				}
				for _, neg := range []bool{false, true} {
					tt, ok := s.ConeTruth16(a, aig.MakeLit(id, neg), leaves)
					if !ok {
						t.Fatalf("node %d: reconvergence cut %v rejected", id, leaves)
					}
					for v := len(leaves); v < 4; v++ {
						if tt&masks[v] != tt>>(1<<v)&masks[v] {
							t.Fatalf("node %d over %d leaves: table %04x depends on variable %d", id, len(leaves), tt, v)
						}
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cut under four leaves was checked")
	}
}

// TestScratchCutTruth covers the ways a stale cut fails CutTruth — an
// escape, the avoided node, the size limit — and that it evaluates a valid
// cut, complemented and constant roots included, right after a failure.
func TestScratchCutTruth(t *testing.T) {
	a := aig.New(4)
	a.EnableStrash()
	n1 := a.NewAnd(a.PI(0), a.PI(1))
	n2 := a.NewAnd(a.PI(2), a.PI(3))
	n3 := a.NewAnd(n1, n2)
	a.AddPO(n3)
	s := new(Scratch)
	cut := []int32{n1.Var(), n2.Var()}
	for _, c := range []struct {
		name   string
		lit    aig.Lit
		leaves []int32
		avoid  int32
		ok     bool
		word   uint64 // the table's low 4 bits, when ok
	}{
		{"valid", n3, cut, -1, true, 0x8},
		{"escape", n3, []int32{n1.Var()}, -1, false, 0},
		{"avoid", n3, []int32{a.PI(0).Var(), a.PI(1).Var(), a.PI(2).Var(), a.PI(3).Var()}, n1.Var(), false, 0},
		{"avoid a leaf", n3, cut, n1.Var(), true, 0x8},
		{"complemented", n3.Not(), cut, -1, true, 0x7},
		{"constant", aig.ConstTrue, cut, -1, true, 0xF},
		{"leaf", n2.Not(), cut, n3.Var(), true, 0x3},
	} {
		tt, ok := s.CutTruth(a, c.lit, c.leaves, c.avoid)
		if ok != c.ok || ok && tt.Words[0]&0xF != c.word {
			t.Errorf("%s: (%v, %v), want (%x, %v)", c.name, tt, ok, c.word, c.ok)
		}
	}
	// The size limit: a chain of 4097 ANDs over one leaf is a valid cut that
	// ConeTruth evaluates, but past CutTruth's 4096 nodes.
	b := aig.New(2)
	x := b.PI(0)
	for i := 0; i <= 4096; i++ {
		x = b.NewAnd(x, b.PI(1))
	}
	leaves := []int32{b.PI(0).Var(), b.PI(1).Var()}
	if _, ok := s.CutTruth(b, x, leaves, -1); ok {
		t.Error("4097-node cone accepted")
	}
	if got := s.ConeTruth(b, x, leaves).Words[0] & 0xF; got != 0x8 {
		t.Errorf("ConeTruth of the chain = %x, want 8", got)
	}
}

// TestConeKeyImpliesConeTruth is the exactness contract of the structural
// cache key: over random networks and every suite family, for the
// reconvergence cut of every AND node in both phases, equal ConeKeys must
// mean equal ConeTruths. KeyedTruth, which evaluates the walk ConeKey
// recorded, is checked against the map-based oracle on every eighth cone.
// One map spans all networks, so a key seen in two circuits is checked
// across them.
func TestConeKeyImpliesConeTruth(t *testing.T) {
	nets := map[string]*aig.AIG{}
	rng := rand.New(rand.NewSource(3))
	for seed := 0; seed < 10; seed++ {
		nets[fmt.Sprintf("random%d", seed)] = aig.Random(rng, 8+seed, 300, 4).Rehash()
	}
	for _, c := range bench.Suite(1) {
		nets[c.Name] = c.Build()
	}
	s := new(Scratch)
	truths := map[string]string{} // key -> truth-table bytes
	var key, words []byte
	cones := 0
	for name, a := range nets {
		a.EnableFanouts()
		rc := NewReconv(a)
		a.ForEachAnd(func(id int32) {
			leaves := rc.Cut(id, 12)
			if len(leaves) < 2 {
				return
			}
			for _, neg := range []bool{false, true} {
				lit := aig.MakeLit(id, neg)
				key = s.ConeKey(a, lit, leaves, key[:0])
				if key == nil || key[0] != coneKeyMarker || int(key[1]) != len(leaves) {
					t.Fatalf("%s node %d: malformed key %x", name, id, key)
				}
				tt := s.KeyedTruth(a, lit, leaves)
				if cones++; cones%8 == 0 && !slices.Equal(tt.Words, refConeTruth(a, lit, leaves).Words) {
					t.Fatalf("%s node %d: KeyedTruth differs from the reference", name, id)
				}
				words = words[:0]
				for _, w := range tt.Words {
					words = binary.LittleEndian.AppendUint64(words, w)
				}
				if prev, ok := truths[string(key)]; ok && prev != string(words) {
					t.Fatalf("%s node %d: key %x maps to two functions", name, id, key)
				}
				truths[string(key)] = string(words)
			}
		})
	}
	if len(truths) < 1000 {
		t.Errorf("only %d distinct keys over %d cones", len(truths), cones)
	}
}

// TestConeKeyRootOnBoundary: a root that is a leaf or the constant emits
// no AND node, so its own code must tell the leaves apart.
func TestConeKeyRootOnBoundary(t *testing.T) {
	a, _ := buildDiamond()
	s := new(Scratch)
	leaves := []int32{a.PI(0).Var(), a.PI(1).Var()}
	k0 := string(s.ConeKey(a, a.PI(0), leaves, nil))
	k1 := string(s.ConeKey(a, a.PI(1), leaves, nil))
	kc := string(s.ConeKey(a, aig.ConstFalse, leaves, nil))
	if k0 == k1 || k0 == kc || k1 == kc {
		t.Errorf("boundary roots share keys: %x %x %x", k0, k1, kc)
	}
	if tt := s.ConeTruth(a, a.PI(1).Not(), leaves); tt.Words[0] != ^uint64(0xCCCCCCCCCCCCCCCC) {
		t.Errorf("NOT leaf 1 = %016x", tt.Words[0])
	}
}

// TestConeKeyUnencodable: a cone with more leaves plus AND nodes than 16-bit
// operand codes index gets no key, and its walk still evaluates exactly —
// node numbers past the codes' range must not alias the constant.
func TestConeKeyUnencodable(t *testing.T) {
	a := aig.New(3)
	a.EnableStrash()
	x := a.PI(0)
	for i := 0; a.NumAnds() <= constIndex; i++ {
		x = a.Xor(x, a.PI(1+i%2))
	}
	leaves := []int32{a.PI(0).Var(), a.PI(1).Var(), a.PI(2).Var()}
	s := new(Scratch)
	if key := s.ConeKey(a, x, leaves, nil); key != nil {
		t.Fatalf("%d-node cone encoded to a %d-byte key", a.NumAnds(), len(key))
	}
	if got, want := s.KeyedTruth(a, x, leaves).Words[0], refConeTruth(a, x, leaves).Words[0]; got != want {
		t.Errorf("KeyedTruth %016x, reference %016x", got, want)
	}
}
