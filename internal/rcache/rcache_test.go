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

func TestNpn4MatchesDirectCanonization(t *testing.T) {
	// The cached NPN result must round-trip the packed encoding exactly:
	// same canonical class and same transform as truth.Npn4Canon, for every
	// 16-bit function, both on the filling pass and the cached pass.
	c := New()
	for pass := 0; pass < 2; pass++ {
		for f := 0; f < 1<<16; f++ {
			canon, tr := truth.Npn4Canon(uint16(f))
			gotCanon, gotTr := c.Npn4(uint16(f))
			if gotCanon != canon {
				t.Fatalf("pass %d: Npn4(%04x) canon = %04x, want %04x", pass, f, gotCanon, canon)
			}
			if gotTr != tr {
				t.Fatalf("pass %d: Npn4(%04x) transform = %+v, want %+v", pass, f, gotTr, tr)
			}
		}
	}
	st := c.Snapshot()
	if st.NpnMisses != 1<<16 || st.NpnHits != 1<<16 {
		t.Errorf("npn counters = %d hits / %d misses, want 65536 / 65536", st.NpnHits, st.NpnMisses)
	}
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

func TestDisabledAndNilAreMissesOnly(t *testing.T) {
	for name, c := range map[string]*Cache{"disabled": Disabled(), "nil": nil} {
		tt := ttOf(6, 42)
		c.Store(tt, 6, Entry{Ops: 1})
		if _, ok := c.Lookup(tt, 6); ok {
			t.Errorf("%s cache returned a hit", name)
		}
		canon, tr := c.Npn4(0x1234)
		wantCanon, wantTr := truth.Npn4Canon(0x1234)
		if canon != wantCanon || tr != wantTr {
			t.Errorf("%s cache Npn4 diverged from direct canonization", name)
		}
	}
	d := Disabled()
	d.Lookup(ttOf(6, 1), 6)
	if st := d.Snapshot(); st.Misses != 1 || st.Entries != 0 {
		t.Errorf("disabled stats = %+v", st)
	}
}

func TestStatsSubDelta(t *testing.T) {
	a := Stats{Hits: 10, Misses: 4, Evictions: 2, NpnHits: 100, NpnMisses: 50, Entries: 9}
	b := Stats{Hits: 3, Misses: 1, Evictions: 0, NpnHits: 60, NpnMisses: 20, Entries: 5}
	d := a.Sub(b)
	if d.Hits != 7 || d.Misses != 3 || d.Evictions != 2 || d.NpnHits != 40 || d.NpnMisses != 30 {
		t.Errorf("delta = %+v", d)
	}
	if d.Entries != 9 {
		t.Errorf("delta keeps the receiver's Entries, got %d", d.Entries)
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	// Hammer one cache from many goroutines mixing NPN lookups and program
	// store/lookup; correctness of each returned value is checked in-thread.
	c := NewWithCapacity(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				f := uint16(rng.Intn(1 << 16))
				canon, _ := c.Npn4(f)
				wantCanon, _ := truth.Npn4Canon(f)
				if canon != wantCanon {
					t.Errorf("Npn4(%04x) = %04x, want %04x", f, canon, wantCanon)
					return
				}
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

// TestNpn4UncountedBatchedCounters: the uncounted probe returns what Npn4
// returns and leaves the shared counters alone; the batch the caller adds
// afterwards lands exactly, from any number of goroutines.
func TestNpn4UncountedBatchedCounters(t *testing.T) {
	c := New()
	const goroutines, probes = 8, 4000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var hits, misses int64
			for i := 0; i < probes; i++ {
				f := uint16(rng.Intn(1 << 10)) // small key space: mostly hits
				canon, tr, hit := c.Npn4Uncounted(f)
				wantCanon, wantTr := truth.Npn4Canon(f)
				if canon != wantCanon || tr != wantTr {
					t.Errorf("Npn4Uncounted(%04x) diverged from direct canonization", f)
					return
				}
				if hit {
					hits++
				} else {
					misses++
				}
				if i%64 == 63 { // flush like a worker does per node
					c.AddNpn(hits, misses)
					hits, misses = 0, 0
				}
			}
			c.AddNpn(hits, misses)
		}(int64(g) + 1)
	}
	wg.Wait()
	st := c.Snapshot()
	if st.NpnHits+st.NpnMisses != goroutines*probes {
		t.Errorf("%d hits + %d misses, want %d probes", st.NpnHits, st.NpnMisses, goroutines*probes)
	}
	if st.NpnMisses < 1<<10 {
		t.Errorf("%d misses for %d distinct functions", st.NpnMisses, 1<<10)
	}
	before := c.Snapshot()
	c.Npn4Uncounted(0x1234)
	var nilCache *Cache
	nilCache.AddNpn(1, 1)
	if after := c.Snapshot(); after != before {
		t.Errorf("uncounted probe moved the counters: %+v -> %+v", before, after)
	}
}

// BenchmarkNpn4Parallel is the NPN hit path under contention, the way the
// rewrite workers use it: uncounted probes, one counter flush per 8 cuts.
func BenchmarkNpn4Parallel(b *testing.B) {
	c := New()
	for f := 0; f < 1<<12; f++ { // a miss costs 768 transforms; 4096 entries span 256 lines of the table
		c.Npn4(uint16(f))
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		f := uint16(1)
		var hits int64
		for pb.Next() {
			if _, _, hit := c.Npn4Uncounted(f & (1<<12 - 1)); hit {
				hits++
			}
			if hits == 8 {
				c.AddNpn(hits, 0)
				hits = 0
			}
			f = f*25173 + 13849
		}
		c.AddNpn(hits, 0)
	})
}
