package hashtable

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"aigre/internal/gpu"
)

func TestInsertQueryBasic(t *testing.T) {
	ht := New(16)
	v, ins, err := ht.InsertUnique(42, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !ins || v != 7 {
		t.Fatalf("first insert = (%d,%v)", v, ins)
	}
	v, ins, _ = ht.InsertUnique(42, 9)
	if ins || v != 7 {
		t.Fatalf("duplicate insert = (%d,%v), want existing 7", v, ins)
	}
	if v, ok := ht.Query(42); !ok || v != 7 {
		t.Errorf("Query = (%d,%v)", v, ok)
	}
	if _, ok := ht.Query(43); ok {
		t.Errorf("absent key found")
	}
	if ht.Len() != 1 {
		t.Errorf("Len = %d", ht.Len())
	}
}

func TestZeroKeyPanics(t *testing.T) {
	ht := New(8)
	defer func() {
		if recover() == nil {
			t.Errorf("zero key must panic")
		}
	}()
	ht.InsertUnique(0, 1)
}

func TestCollisionHeavyFill(t *testing.T) {
	ht := New(1024)
	for i := uint64(1); i <= 1024; i++ {
		ht.InsertUnique(i, uint32(i))
	}
	for i := uint64(1); i <= 1024; i++ {
		if v, ok := ht.Query(i); !ok || v != uint32(i) {
			t.Fatalf("key %d -> (%d,%v)", i, v, ok)
		}
	}
	if lf := float64(ht.Len()) / float64(ht.Cap()); lf > 0.51 {
		t.Errorf("load factor %f too high", lf)
	}
}

func TestConcurrentInsertUniqueWinner(t *testing.T) {
	// Many goroutines race to insert the same keys with different values;
	// exactly one value must win per key and every thread must observe it.
	ht := New(4096)
	const goroutines = 8
	const keys = 1000
	results := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			res := make([]uint32, keys)
			for k := 1; k <= keys; k++ {
				v, _, _ := ht.InsertUnique(uint64(k), uint32(g*keys+k))
				res[k-1] = v
			}
			results[g] = res
		}()
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		want := results[0][k]
		for g := 1; g < goroutines; g++ {
			if results[g][k] != want {
				t.Fatalf("key %d: thread %d saw %d, thread 0 saw %d", k+1, g, results[g][k], want)
			}
		}
	}
	if ht.Len() != keys {
		t.Errorf("Len = %d, want %d", ht.Len(), keys)
	}
}

// TestConcurrentInsertMinDeterministic drives InsertMin from many racing
// goroutines: whatever the scheduling, every key
// must end at the minimum value any thread offered — the property that makes
// a batch of InsertMin calls equivalent to a sequential first-encounter
// replay of the same batch.
func TestConcurrentInsertMinDeterministic(t *testing.T) {
	ht := New(4096)
	const goroutines = 8
	const keys = 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			// Visit the keys in a per-thread order so slot claims and CAS-min
			// races interleave differently every run.
			for _, k := range rng.Perm(keys) {
				if err := ht.InsertMin(uint64(k+1), uint32((g+1)*10_000+k)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		want := uint32(10_000 + k) // goroutine 0's offer is the global minimum
		if v, ok := ht.Query(uint64(k + 1)); !ok || v != want {
			t.Fatalf("key %d -> (%d,%v), want %d", k+1, v, ok, want)
		}
	}
	if ht.Len() != keys {
		t.Errorf("Len = %d, want %d", ht.Len(), keys)
	}
}

// TestInsertMinFull checks that InsertMin degrades exactly like InsertUnique:
// ErrTableFull for new keys on a full table, while lowering present keys
// still succeeds.
func TestInsertMinFull(t *testing.T) {
	ht := New(4)
	cap := ht.Cap()
	var inserted []uint64
	for k := uint64(1); ; k++ {
		if err := ht.InsertMin(k, uint32(k)); err != nil {
			if !errors.Is(err, ErrTableFull) {
				t.Fatal(err)
			}
			break
		}
		inserted = append(inserted, k)
		if len(inserted) > cap {
			t.Fatal("table never filled")
		}
	}
	if err := ht.InsertMin(inserted[0], 0); err != nil {
		t.Errorf("lowering a present key on a full table failed: %v", err)
	}
	if v, _ := ht.Query(inserted[0]); v != 0 {
		t.Errorf("value not lowered: %d", v)
	}
}

// TestTableFullReturnsError checks the typed degradation path: a table at
// capacity must return ErrTableFull for new keys (never panic), while
// lookups of present keys still succeed.
func TestTableFullReturnsError(t *testing.T) {
	ht := New(4) // 8 slots; full detection trips at 7 occupied
	var inserted []uint64
	var sawFull bool
	for k := uint64(1); k <= 16; k++ {
		_, ins, err := ht.InsertUnique(k, uint32(k))
		if err != nil {
			if !errors.Is(err, ErrTableFull) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawFull = true
			continue
		}
		if ins {
			inserted = append(inserted, k)
		}
	}
	if !sawFull {
		t.Fatal("table never reported full")
	}
	if len(inserted) != ht.Cap()-1 {
		t.Errorf("inserted %d keys into %d slots, want %d (one reserved empty)",
			len(inserted), ht.Cap(), ht.Cap()-1)
	}
	// Present keys still resolve on the full table, via Query and via
	// InsertUnique's lookup path.
	for _, k := range inserted {
		if v, ok := ht.Query(k); !ok || v != uint32(k) {
			t.Fatalf("key %d lost on full table", k)
		}
		if v, ins, err := ht.InsertUnique(k, 999); err != nil || ins || v != uint32(k) {
			t.Fatalf("present-key insert on full table = (%d,%v,%v)", v, ins, err)
		}
	}
	// Rehash recovers: after growing, new keys insert again.
	ht.Rehash(64)
	if _, ins, err := ht.InsertUnique(1000, 1); err != nil || !ins {
		t.Fatalf("insert after rehash = (%v,%v)", ins, err)
	}
}

// TestConcurrentFullDetection races many goroutines against a tiny table:
// no panic, at least one ErrTableFull, and one slot stays reserved.
func TestConcurrentFullDetection(t *testing.T) {
	ht := New(8) // 16 slots
	const goroutines = 8
	var wg sync.WaitGroup
	var fulls int64
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			for k := 1; k <= 64; k++ {
				_, _, err := ht.InsertUnique(uint64(g*64+k), uint32(k))
				if err != nil {
					atomic.AddInt64(&fulls, 1)
				}
			}
		}()
	}
	wg.Wait()
	if fulls == 0 {
		t.Error("no ErrTableFull under concurrent overflow")
	}
	if ht.Len() >= ht.Cap() {
		t.Errorf("occupancy %d reached capacity %d; reserved slot lost", ht.Len(), ht.Cap())
	}
}

func TestChainedTableFullReturnsError(t *testing.T) {
	ct := NewChained(4)
	var sawFull bool
	for k := uint64(1); k <= 16; k++ {
		_, _, err := ct.InsertUnique(k, uint32(k))
		if err != nil {
			if !errors.Is(err, ErrTableFull) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawFull = true
		}
	}
	if !sawFull {
		t.Fatal("chained table never reported full")
	}
}

func TestDumpMatchesContents(t *testing.T) {
	ht := New(256)
	rng := rand.New(rand.NewSource(2))
	want := map[uint64]uint32{}
	for i := 0; i < 200; i++ {
		k := uint64(rng.Intn(500) + 1)
		v := uint32(rng.Intn(1000))
		got, ins, _ := ht.InsertUnique(k, v)
		if ins {
			want[k] = v
		} else if want[k] != got {
			t.Fatalf("existing value mismatch")
		}
	}
	for _, dev := range []*gpu.Device{nil, gpu.New(2)} {
		dump := ht.Dump(dev)
		if len(dump) != len(want) {
			t.Fatalf("dump len = %d, want %d", len(dump), len(want))
		}
		for _, kv := range dump {
			if want[kv.Key] != kv.Val {
				t.Errorf("dump entry %d=%d, want %d", kv.Key, kv.Val, want[kv.Key])
			}
		}
	}
}

func TestRehashPreservesEntries(t *testing.T) {
	ht := New(8)
	for i := uint64(1); i <= 8; i++ {
		ht.InsertUnique(i*7, uint32(i))
	}
	ht.Rehash(1000)
	if ht.Len() != 8 {
		t.Fatalf("Len after rehash = %d", ht.Len())
	}
	for i := uint64(1); i <= 8; i++ {
		if v, ok := ht.Query(i * 7); !ok || v != uint32(i) {
			t.Errorf("key %d lost after rehash", i*7)
		}
	}
	if ht.Cap() < 2000 {
		t.Errorf("Cap = %d after Rehash(1000)", ht.Cap())
	}
}

func TestQuickTableMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ht := New(512)
		ref := map[uint64]uint32{}
		for i := 0; i < 300; i++ {
			k := uint64(rng.Intn(200) + 1)
			v := uint32(rng.Intn(1 << 20))
			got, ins, _ := ht.InsertUnique(k, v)
			if prev, ok := ref[k]; ok {
				if ins || got != prev {
					return false
				}
			} else {
				if !ins || got != v {
					return false
				}
				ref[k] = v
			}
		}
		for k, v := range ref {
			if got, ok := ht.Query(k); !ok || got != v {
				return false
			}
		}
		return ht.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestChainedBasic(t *testing.T) {
	ct := NewChained(128)
	v, ins, _ := ct.InsertUnique(10, 3)
	if !ins || v != 3 {
		t.Fatalf("insert = (%d,%v)", v, ins)
	}
	v, ins, _ = ct.InsertUnique(10, 5)
	if ins || v != 3 {
		t.Fatalf("dup insert = (%d,%v)", v, ins)
	}
	if v, ok := ct.Query(10); !ok || v != 3 {
		t.Errorf("Query = (%d,%v)", v, ok)
	}
	if _, ok := ct.Query(11); ok {
		t.Errorf("absent key found")
	}
}

func TestChainedConcurrent(t *testing.T) {
	ct := NewChained(1 << 14)
	const goroutines = 8
	const keys = 500
	var wg sync.WaitGroup
	results := make([][]uint32, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			res := make([]uint32, keys)
			for k := 1; k <= keys; k++ {
				v, _, _ := ct.InsertUnique(uint64(k), uint32(g*keys+k))
				res[k-1] = v
			}
			results[g] = res
		}()
	}
	wg.Wait()
	for k := 0; k < keys; k++ {
		// Under chaining, concurrent same-key inserts may briefly create
		// duplicate entries; the first chain hit decides. All queries after
		// the racing window must agree.
		v, ok := ct.Query(uint64(k + 1))
		if !ok {
			t.Fatalf("key %d missing", k+1)
		}
		_ = v
	}
}

func TestResetReusesArrays(t *testing.T) {
	ht := New(16)
	for k := uint64(1); k <= 10; k++ {
		ht.InsertUnique(k, uint32(k))
	}
	ht.Reset()
	if ht.Len() != 0 {
		t.Fatalf("Len after Reset = %d", ht.Len())
	}
	for k := uint64(1); k <= 10; k++ {
		if _, ok := ht.Query(k); ok {
			t.Fatalf("key %d survived Reset", k)
		}
	}
	// The table is fully usable again at its original capacity.
	for k := uint64(100); k < 110; k++ {
		if _, ins, err := ht.InsertUnique(k, uint32(k)); err != nil || !ins {
			t.Fatalf("reinsert %d after Reset: ins=%v err=%v", k, ins, err)
		}
	}
	if ht.Len() != 10 {
		t.Errorf("Len after reinsert = %d", ht.Len())
	}
}

func TestSizeFor(t *testing.T) {
	for _, tc := range []struct{ hint, want int }{
		{0, 8}, {1, 8}, {4, 8}, {5, 16}, {8, 16}, {9, 32}, {1000, 2048},
	} {
		if got := SizeFor(tc.hint); got != tc.want {
			t.Errorf("SizeFor(%d) = %d, want %d", tc.hint, got, tc.want)
		}
		if New(tc.hint).Cap() != SizeFor(tc.hint) {
			t.Errorf("New(%d).Cap() != SizeFor(%d)", tc.hint, tc.hint)
		}
	}
}
