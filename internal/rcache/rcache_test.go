package rcache

import (
	"math/rand"
	"sync"
	"testing"

	"aigre/internal/core"
	"aigre/internal/truth"
)

func ttOf(nVars int, words ...uint64) truth.TT {
	return truth.TT{NVars: nVars, Words: words}
}

func TestProgramLookupStoreCounts(t *testing.T) {
	c := New()
	tt := ttOf(6, 0xDEADBEEF12345678)
	if _, ok := c.Lookup(tt, 6); ok {
		t.Fatal("hit on empty cache")
	}
	e := Entry{Prog: core.Program{Root: core.ConstRef(true)}, Ops: 7}
	c.Store(tt, 6, e)
	got, ok := c.Lookup(tt, 6)
	if !ok || got.Ops != 7 {
		t.Fatalf("Lookup after Store = (%+v, %v)", got, ok)
	}
	// Same function under a different leaf count is a distinct key.
	if _, ok := c.Lookup(tt, 5); ok {
		t.Error("leaf count must be part of the key")
	}
	st := c.Snapshot()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 1 entry", st)
	}
	if st.HitRate() <= 0.33 || st.HitRate() >= 0.34 {
		t.Errorf("hit rate = %v, want 1/3", st.HitRate())
	}
}

func TestEvictionBoundsEntries(t *testing.T) {
	c := NewWithCapacity(64)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		tt := ttOf(6, rng.Uint64())
		c.Store(tt, 6, Entry{Ops: int64(i)})
	}
	if n := c.Entries(); n > 64+numShards {
		t.Errorf("entries = %d, want bounded near 64", n)
	}
	if c.Snapshot().Evictions == 0 {
		t.Error("expected evictions on an overfull cache")
	}
}

// TestDisabledMissesNilIsDefault: a disabled cache stores nothing and counts
// every probe as a miss; a nil cache is Default, in every method.
func TestDisabledMissesNilIsDefault(t *testing.T) {
	d := Disabled()
	tt := ttOf(6, 42)
	d.Store(tt, 6, Entry{Ops: 1})
	if _, ok := d.Lookup(tt, 6); ok {
		t.Error("disabled cache returned a hit")
	}
	if st := d.Snapshot(); st.Misses != 1 || st.Entries != 0 {
		t.Errorf("disabled stats = %+v", st)
	}
	var c *Cache
	tt = ttOf(6, 0x5EED)
	c.Store(tt, 6, Entry{Ops: 3})
	if e, ok := Default.Lookup(tt, 6); !ok || e.Ops != 3 {
		t.Errorf("nil cache Store did not reach Default: (%+v, %v)", e, ok)
	}
	if e, ok := c.Lookup(tt, 6); !ok || e.Ops != 3 {
		t.Errorf("nil cache Lookup did not read Default: (%+v, %v)", e, ok)
	}
	if got, want := c.Snapshot(), Default.Snapshot(); got != want {
		t.Errorf("nil cache snapshot %+v, Default %+v", got, want)
	}
}

func TestStatsSubDelta(t *testing.T) {
	a := Stats{Hits: 10, Misses: 4, Evictions: 2, Entries: 9}
	b := Stats{Hits: 3, Misses: 1, Evictions: 0, Entries: 5}
	d := a.Sub(b)
	if d.Hits != 7 || d.Misses != 3 || d.Evictions != 2 {
		t.Errorf("delta = %+v", d)
	}
	if d.Entries != 9 {
		t.Errorf("delta keeps the receiver's Entries, got %d", d.Entries)
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// Hammer one cache from many goroutines mixing program stores and
	// lookups; correctness of each returned value is checked in-thread.
	c := NewWithCapacity(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				w := rng.Uint64() % 512 // small key space to force hits
				tt := ttOf(6, w)
				if e, ok := c.Lookup(tt, 6); ok && e.Ops != int64(w) {
					t.Errorf("Lookup(%d) returned foreign entry with Ops=%d", w, e.Ops)
					return
				}
				c.Store(tt, 6, Entry{Ops: int64(w)})
			}
		}(int64(g) + 1)
	}
	wg.Wait()
}
