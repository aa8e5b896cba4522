package rcache_test

import (
	"context"
	"slices"
	"testing"

	"aigre/internal/bench"
	"aigre/internal/flow"
	"aigre/internal/rcache"
)

// TestShardSpread fills a cache with what it is for — the cone keys of a
// sequential resyn2 over sixteen at scale 4, the suite circuit with the
// most distinct cones (multiplier has a hundred) — and checks that shard
// selection spreads them: the fullest shard holds at most twice the mean, and
// nothing is evicted from a cache a tenth full. The run is sequential, so its
// traffic is exact and pinned, in the style of TestNpnCountersExact.
func TestShardSpread(t *testing.T) {
	a, ok := bench.ByName("sixteen", 4)
	if !ok {
		t.Fatal("sixteen missing from suite")
	}
	c := rcache.New()
	if _, err := flow.Run(context.Background(), a, flow.Resyn2, flow.Config{Cache: c}); err != nil {
		t.Fatal(err)
	}
	sizes := c.ShardSizes()
	st := c.Snapshot()
	if fullest, mean := slices.Max(sizes), float64(st.Entries)/float64(len(sizes)); float64(fullest) > 2*mean {
		t.Errorf("fullest shard holds %d entries, the mean is %.0f: %v", fullest, mean, sizes)
	}
	want := rcache.Stats{Hits: 1624, Misses: 3156, Entries: 3156, NpnHits: 141847, NpnMisses: 725}
	if st != want {
		t.Errorf("cache traffic of the run = %+v, want %+v", st, want)
	}
}
