package aig_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/aiger"
	"aigre/internal/alloctest"
)

// rehashOrPanic runs one Rehash implementation, turning a panic into its
// message.
func rehashOrPanic(rehash func(*aig.AIG) *aig.AIG, a *aig.AIG) (out *aig.AIG, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = fmt.Sprint(r)
		}
	}()
	return rehash(a), ""
}

// sameAsRebuild checks Rehash against the rebuild oracle on a: the same
// panic, or the same AIGER bytes and the same nodes, ids and POs.
func sameAsRebuild(t *testing.T, a *aig.AIG) {
	t.Helper()
	got, gotPanic := rehashOrPanic((*aig.AIG).Rehash, a)
	want, wantPanic := rehashOrPanic(aig.RehashByRebuild, a)
	if gotPanic != wantPanic {
		t.Fatalf("Rehash panicked with %q, the rebuild with %q", gotPanic, wantPanic)
	}
	if want == nil {
		return
	}
	var gb, wb bytes.Buffer
	if err := aiger.WriteBinary(&gb, got); err != nil {
		t.Fatal(err)
	}
	if err := aiger.WriteBinary(&wb, want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("Rehash wrote %d AIGER bytes, the rebuild %d, and they differ", gb.Len(), wb.Len())
	}
	if got.Name != want.Name || got.NumObjs() != want.NumObjs() || got.NumAnds() != want.NumAnds() ||
		!slices.Equal(got.POs(), want.POs()) {
		t.Fatalf("Rehash: %q, %d objects, %d ANDs, POs %v; rebuild: %q, %d, %d, %v",
			got.Name, got.NumObjs(), got.NumAnds(), got.POs(), want.Name, want.NumObjs(), want.NumAnds(), want.POs())
	}
	for id := int32(0); int(id) < want.NumObjs(); id++ {
		if got.Fanin0(id) != want.Fanin0(id) || got.Fanin1(id) != want.Fanin1(id) {
			t.Fatalf("node %d: Rehash %v %v, rebuild %v %v",
				id, got.Fanin0(id), got.Fanin1(id), want.Fanin0(id), want.Fanin1(id))
		}
	}
}

// TestRehashMatchesRebuild: a fixed point of the rebuild is copied, and each
// way of not being one — a row per check rehashedForm makes — takes the
// rebuild; either way the output is the rebuild's, and a cyclic network
// panics with the walk's error.
func TestRehashMatchesRebuild(t *testing.T) {
	three := func(build func(a *aig.AIG, x, y, z aig.Lit)) *aig.AIG {
		a := aig.New(3)
		a.Name = "row"
		build(a, a.PI(0), a.PI(1), a.PI(2))
		return a
	}
	random := aig.Random(rand.New(rand.NewSource(7)), 8, 300, 5)
	for _, tc := range []struct {
		name  string
		net   *aig.AIG
		fixed bool
	}{
		{"fixed point", random.Rehash(), true},
		{"raw random", random, false},
		{"duplicate pair", three(func(a *aig.AIG, x, y, z aig.Lit) {
			a.AddPO(a.AddAndUnchecked(x, y))
			a.AddPO(a.AddAndUnchecked(x, y))
		}), false},
		{"x and x", three(func(a *aig.AIG, x, y, z aig.Lit) {
			a.AddPO(a.AddAndUnchecked(a.AddAndUnchecked(x, x), y))
		}), false},
		{"x and not x", three(func(a *aig.AIG, x, y, z aig.Lit) {
			a.AddPO(a.AddAndUnchecked(a.AddAndUnchecked(x, x.Not()).Not(), y))
		}), false},
		{"constant fanin", three(func(a *aig.AIG, x, y, z aig.Lit) {
			a.AddPO(a.AddAndUnchecked(a.AddAndUnchecked(x, aig.ConstTrue), y))
		}), false},
		{"unsorted fanins", three(func(a *aig.AIG, x, y, z aig.Lit) {
			n := a.AddAndUnchecked(x, y)
			aig.SetRawFanins(a, n.Var(), y, x)
			a.AddPO(n)
		}), false},
		{"dangling node", three(func(a *aig.AIG, x, y, z aig.Lit) {
			a.AddPO(a.AddAndUnchecked(x, y))
			a.AddAndUnchecked(y, z)
		}), false},
		{"canonical, not in PO order", three(func(a *aig.AIG, x, y, z aig.Lit) {
			n1 := a.AddAndUnchecked(x, y)
			n2 := a.AddAndUnchecked(y, z)
			a.AddPO(n2)
			a.AddPO(n1)
		}), false},
		{"deleted node", three(func(a *aig.AIG, x, y, z aig.Lit) {
			a.AddAndUnchecked(x, y)
			a.AddPO(a.AddAndUnchecked(y, z))
			a.EnableFanouts()
			if a.SweepDangling() != 1 {
				t.Fatal("deleted node row: nothing deleted")
			}
		}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := aig.RehashedForm(tc.net); got != tc.fixed {
				t.Fatalf("rehashed form %v, want %v", got, tc.fixed)
			}
			sameAsRebuild(t, tc.net)
		})
	}

	t.Run("cycle", func(t *testing.T) {
		a := three(func(a *aig.AIG, x, y, z aig.Lit) {
			n1 := a.AddAndUnchecked(x, y)
			n2 := a.AddAndUnchecked(n1, z)
			a.SetFanins(n1.Var(), n2, x)
			a.AddPO(n2)
		})
		_, _, walkErr := a.CompactSafe()
		_, panicked := rehashOrPanic((*aig.AIG).Rehash, a)
		if walkErr == nil || panicked != walkErr.Error() {
			t.Fatalf("Rehash panicked with %q, the walk's error is %v", panicked, walkErr)
		}
		sameAsRebuild(t, a)
	})
}

// FuzzRehash corrupts a Random network, or its rehashed fixed point, with
// FuzzWalk's mutator and checks Rehash against the rebuild oracle: the same
// panic on an invalid network, the same bytes and ids otherwise.
func FuzzRehash(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40), uint8(0), true)
	f.Add(int64(2), uint8(6), uint8(120), uint8(1), true)
	f.Add(int64(3), uint8(5), uint8(60), uint8(3), false)
	f.Add(int64(4), uint8(8), uint8(255), uint8(0), false)
	f.Fuzz(func(t *testing.T, seed int64, nPIs, nAnds, nEdits uint8, rehashFirst bool) {
		if nPIs < 4 || nPIs > 16 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, int(nPIs), int(nAnds), 1+int(nPIs)/2)
		if rehashFirst {
			a = a.Rehash()
		} else {
			a.ReleaseStrash()
		}
		aig.Corrupt(a, rng, int(nEdits))
		sameAsRebuild(t, a)
	})
}

// TestRehashAllocBudget: rehashing a fixed point allocates one copy of it
// (8 B per object, 4 B per PO) plus the walk's scratch (1 B per object of
// colour, 4 B per AND of order), not a rebuild and a compaction; the strash
// table of the duplicate check comes from the package pool.
func TestRehashAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	a := aig.Random(rand.New(rand.NewSource(3)), 64, 50000, 32).Rehash()
	got := alloctest.Bytes(func() { a.Rehash() })
	budget := uint64(9*a.NumObjs() + 4*a.NumAnds() + 4*a.NumPOs() + 16384) // 16 KiB: page rounding
	t.Logf("%d B for %d objects (budget %d B)", got, a.NumObjs(), budget)
	if got > budget {
		t.Errorf("Rehash of a fixed point allocated %d B on %d objects, budget %d B", got, a.NumObjs(), budget)
	}
}

var sinkRehash *aig.AIG

// BenchmarkRehash is Rehash on a raw Random network (dangling nodes, not in
// PO order: the rebuild) and on its own output (a fixed point: the copy).
func BenchmarkRehash(b *testing.B) {
	raw := aig.Random(rand.New(rand.NewSource(1)), 256, 1<<18, 64)
	for _, bc := range []struct {
		name string
		net  *aig.AIG
	}{{"raw", raw}, {"fixed-point", raw.Rehash()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			start := alloctest.Total()
			for i := 0; i < b.N; i++ {
				sinkRehash = bc.net.Rehash()
			}
			alloctest.ReportPerNode(b, start, bc.net.NumObjs())
		})
	}
}
