package aig

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// TestStrashTableBasics exercises the open-addressed table directly:
// map-assignment set semantics, guarded delete, tombstone reuse, and growth.
func TestStrashTableBasics(t *testing.T) {
	tb := newStrashTable(4)
	defer tb.release()

	if _, ok := tb.get(42); ok {
		t.Fatal("empty table reported a hit")
	}
	// Key zero is legal (unlike the concurrent hashtable's reserved slot).
	tb.set(0, 7)
	if v, ok := tb.get(0); !ok || v != 7 {
		t.Fatalf("get(0) = %d,%v, want 7,true", v, ok)
	}
	// Overwrite semantics.
	tb.set(0, 9)
	if v, _ := tb.get(0); v != 9 {
		t.Fatalf("overwrite: got %d, want 9", v)
	}
	// setIfAbsent keeps the existing binding.
	if v, inserted := tb.setIfAbsent(0, 11); inserted || v != 9 {
		t.Fatalf("setIfAbsent on present key: got %d,%v", v, inserted)
	}
	if v, inserted := tb.setIfAbsent(5, 11); !inserted || v != 11 {
		t.Fatalf("setIfAbsent on absent key: got %d,%v", v, inserted)
	}
	// delIf only removes when the stored id matches.
	tb.delIf(5, 99)
	if _, ok := tb.get(5); !ok {
		t.Fatal("delIf with wrong id removed the entry")
	}
	tb.delIf(5, 11)
	if _, ok := tb.get(5); ok {
		t.Fatal("delIf with matching id left the entry")
	}
	// Growth: push far past the initial size.
	for i := uint64(1); i <= 10_000; i++ {
		tb.set(i, int32(i))
	}
	for i := uint64(1); i <= 10_000; i++ {
		if v, ok := tb.get(i); !ok || v != int32(i) {
			t.Fatalf("after growth get(%d) = %d,%v", i, v, ok)
		}
	}
	if tb.live != 10_001 {
		t.Fatalf("live = %d, want 10001", tb.live)
	}
}

// TestStrashTableNilSafe checks the nil-receiver read/delete paths that stand
// in for nil-map semantics (deleteCone runs with strash disabled).
func TestStrashTableNilSafe(t *testing.T) {
	var tb *strashTable
	if _, ok := tb.get(1); ok {
		t.Fatal("nil get reported a hit")
	}
	tb.delIf(1, 1) // must not panic
}

// TestStrashTableTombstoneChurn deletes and reinserts through the same table
// long enough that growth must purge tombstones rather than expand forever.
func TestStrashTableTombstoneChurn(t *testing.T) {
	tb := newStrashTable(8)
	defer tb.release()
	rng := rand.New(rand.NewSource(1))
	live := map[uint64]int32{}
	for round := 0; round < 50_000; round++ {
		k := uint64(rng.Intn(500))
		if id, ok := live[k]; ok && rng.Intn(2) == 0 {
			tb.delIf(k, id)
			delete(live, k)
		} else {
			id := int32(rng.Intn(1000) + 1)
			tb.set(k, id)
			live[k] = id
		}
	}
	if len(tb.keys) > 4096 {
		t.Fatalf("table ballooned to %d slots for <=500 live keys", len(tb.keys))
	}
	for k, id := range live {
		if v, ok := tb.get(k); !ok || v != id {
			t.Fatalf("get(%d) = %d,%v, want %d,true", k, v, ok, id)
		}
	}
	if tb.live != len(live) {
		t.Fatalf("live = %d, want %d", tb.live, len(live))
	}
}

// buildStrashed builds a deterministic pseudo-random network with hashing on
// and returns a stable fingerprint of its structure.
func buildStrashed(seed int64, ands int) (*AIG, string) {
	rng := rand.New(rand.NewSource(seed))
	a := New(8)
	a.EnableStrash()
	lits := make([]Lit, 0, ands+9)
	for i := int32(1); i <= 8; i++ {
		lits = append(lits, MakeLit(i, false))
	}
	for i := 0; i < ands; i++ {
		f0 := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		f1 := lits[rng.Intn(len(lits))].NotCond(rng.Intn(2) == 0)
		lits = append(lits, a.NewAnd(f0, f1))
	}
	a.AddPO(lits[len(lits)-1])
	return a, fmt.Sprintf("%d/%v", a.NumAnds(), lits[len(lits)-8:])
}

// TestStrashPoolDeterminism runs many concurrent strashed builds through the
// shared slicePool free-lists (the partition-parallel usage pattern:
// every worker builds, releases, and rebuilds tables whose arrays are recycled
// across goroutines) and checks that every build of the same seed produces an
// identical structure — i.e. reuse-after-Put leaks no state. Run under -race
// this also stress-tests the pool handoff.
func TestStrashPoolDeterminism(t *testing.T) {
	const workers = 8
	const rounds = 6
	want := make([]string, workers)
	for w := range want {
		a, fp := buildStrashed(int64(w), 4000)
		a.ReleaseStrash()
		want[w] = fp
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				a, fp := buildStrashed(int64(w), 4000)
				if fp != want[w] {
					errs <- fmt.Errorf("worker %d round %d: fingerprint %s, want %s", w, r, fp, want[w])
				}
				if err := a.Check(); err != nil {
					errs <- fmt.Errorf("worker %d round %d: %v", w, r, err)
				}
				a.RebuildStrash() // rebuild over a released+reacquired table
				if err := a.Check(); err != nil {
					errs <- fmt.Errorf("worker %d round %d post-rebuild: %v", w, r, err)
				}
				a.ReleaseStrash()
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRebuildStrashSizing verifies the satellite fix: after deleting most of
// the network in place, RebuildStrash sizes by the live count, not by the raw
// object count, and skips deleted ids entirely.
func TestRebuildStrashSizing(t *testing.T) {
	a, _ := buildStrashed(7, 20_000)
	a.EnableFanouts()
	// Point the PO at a tiny subgraph and sweep everything else.
	a.SetPO(0, MakeLit(1, false))
	a.SweepDangling()
	if a.NumAnds() != 0 {
		t.Fatalf("expected empty network, have %d ANDs", a.NumAnds())
	}
	a.RebuildStrash()
	if got := len(a.strash.keys); got > 64 {
		t.Fatalf("rebuild after mass deletion allocated %d slots, want live-count sizing", got)
	}
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	a.ReleaseStrash()
}

func TestSlicePoolGetPutRoundTrip(t *testing.T) {
	var p slicePool[int]
	s := p.get(4)
	if len(s) != 4 || cap(s) < 4 {
		t.Fatalf("get(4) = len %d cap %d", len(s), cap(s))
	}
	s[0] = 42
	p.put(s)
	r := p.get(2)
	if len(r) != 2 {
		t.Fatalf("get(2) = len %d", len(r))
	}
	// Contents are explicitly arbitrary; getZeroed clears them.
	p.put(r)
	z := p.getZeroed(3)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("getZeroed[%d] = %d", i, v)
		}
	}
}

func TestSlicePoolPutNilAndEmptyAreNoOps(t *testing.T) {
	var p slicePool[byte]
	p.put(nil)
	p.put([]byte{})
	if s := p.get(1); len(s) != 1 {
		t.Fatalf("get(1) after no-op puts = len %d", len(s))
	}
}

func TestSlicePoolGetLargerThanPooled(t *testing.T) {
	var p slicePool[int32]
	p.put(make([]int32, 8))
	big := p.get(100)
	if len(big) != 100 {
		t.Fatalf("get(100) = len %d", len(big))
	}
}

// TestSlicePoolSteadyStateDoesNotAllocate is the reason the pool boxes its
// slices: a warm get/put cycle must not box slice headers into fresh heap
// allocations.
func TestSlicePoolSteadyStateDoesNotAllocate(t *testing.T) {
	var p slicePool[uint64]
	p.put(make([]uint64, 0, 64))
	avg := testing.AllocsPerRun(100, func() {
		s := p.get(32)
		p.put(s)
	})
	if avg != 0 {
		t.Errorf("warm get/put allocates %.1f objects per cycle, want 0", avg)
	}
}
