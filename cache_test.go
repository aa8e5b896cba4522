package aigre_test

import (
	"context"
	"fmt"
	"testing"

	"aigre"
	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/flow"
)

// cacheCases are arithmetic circuits — the workloads where a resynthesis
// cache pays off, because carry chains and partial products repeat the same
// cone functions hundreds of times. (Random networks are useless here: resyn2
// collapses an 8-PI random AIG to constants before refactor sees a cone.)
func cacheCases() map[string]*aig.AIG {
	return map[string]*aig.AIG{
		"adder32": bench.Adder(32),
		"mult8":   bench.Multiplier(8),
		"sqrt16":  bench.Sqrt(16),
	}
}

// TestCachedRunsMatchUncached is the correctness contract of the
// resynthesis cache: a cached run must write the same bytes as the uncached
// run, charge the same modeled device time, and remain equivalent to the
// input — the cache is a pure memoization, never a behavioral knob. The
// contract holds for a fresh cache, a warm one, and a 64-entry one that
// evicts wherever a run meets more distinct cones than that (one parallel rf
// pass over these circuits does not). Modeled time is compared for the
// parallel engines only: the sequential engines report their wall time there.
func TestCachedRunsMatchUncached(t *testing.T) {
	ctx := context.Background()
	var evictions int64
	for name, raw := range cacheCases() {
		for _, parallel := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/parallel=%v", name, parallel), func(t *testing.T) {
				for _, sc := range []struct{ name, script string }{{"resyn2", flow.Resyn2}, {"rf", "rf"}} {
					t.Run(sc.name, func(t *testing.T) {
						n := aigre.FromInternal(raw)
						run := func(c *aigre.Cache) aigre.Result {
							t.Helper()
							res, err := n.Run(ctx, sc.script, aigre.Options{Parallel: parallel, Workers: 1, Cache: c})
							if err != nil {
								t.Fatal(err)
							}
							return res
						}
						cold := run(aigre.DisabledCache())
						want := outputDigest(t, cold.AIG)
						cache := aigre.NewCache()
						warm := run(cache)
						evicting := run(aigre.NewCacheWithCapacity(64))
						// A second run over the same network hits the now-warm
						// cache and still produces the identical result.
						again := run(cache)
						for row, res := range map[string]aigre.Result{"fresh": warm, "evicting": evicting, "warm": again} {
							if got := outputDigest(t, res.AIG); got != want {
								t.Errorf("%s cache: output digest %s, uncached %s", row, got, want)
							}
							if parallel && res.Modeled != cold.Modeled {
								t.Errorf("%s cache: modeled %v, uncached %v", row, res.Modeled, cold.Modeled)
							}
						}
						if eq, err := warm.AIG.EquivalentTo(n); err != nil || !eq {
							t.Fatalf("cached result not equivalent (err=%v)", err)
						}
						if cold.CacheStats.Hits != 0 || cold.CacheStats.NpnHits != 0 {
							t.Errorf("disabled cache reported hits: %+v", cold.CacheStats)
						}
						if warm.CacheStats.Misses == 0 {
							t.Errorf("fresh cache saw no program traffic: %+v", warm.CacheStats)
						}
						if sc.name == "resyn2" && warm.CacheStats.Hits == 0 {
							t.Errorf("arithmetic circuit produced no within-run hits: %+v", warm.CacheStats)
						}
						evictions += evicting.CacheStats.Evictions
						if again.CacheStats.Hits <= warm.CacheStats.Hits {
							t.Errorf("warm rerun hits %d not above cold-run hits %d",
								again.CacheStats.Hits, warm.CacheStats.Hits)
						}
					})
				}
			})
		}
	}
	if evictions == 0 {
		t.Error("no run evicted from the 64-entry cache: the evicting rows test nothing")
	}
}

// TestEvictionIsDeterministic: a shard evicts in insertion order, so two
// identical sequential runs, each into its own fresh evicting cache, see the
// same hits, misses and evictions.
func TestEvictionIsDeterministic(t *testing.T) {
	n := aigre.FromInternal(bench.Multiplier(8))
	var stats []aigre.CacheStats
	for range 2 {
		res, err := n.Resyn2(context.Background(), aigre.Options{Cache: aigre.NewCacheWithCapacity(64)})
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, res.CacheStats)
	}
	if stats[0].Evictions == 0 {
		t.Fatalf("64-entry cache evicted nothing: %+v", stats[0])
	}
	if stats[0] != stats[1] {
		t.Errorf("identical runs into fresh caches: %+v, then %+v", stats[0], stats[1])
	}
}

// TestSharedCacheBatchStress hammers one shared cache from concurrent batch
// jobs (run under -race by scripts/check.sh) and checks every job's result
// against an isolated-cache reference run.
func TestSharedCacheBatchStress(t *testing.T) {
	const jobs = 8
	shared := aigre.NewCache()
	batch := make([]aigre.Batch, jobs)
	for i := range batch {
		// Pairs of jobs share a circuit so the cache sees genuinely
		// concurrent lookups of the same cone functions.
		var raw *aig.AIG
		switch i % 4 {
		case 0:
			raw = bench.Adder(24)
		case 1:
			raw = bench.Multiplier(6)
		case 2:
			raw = bench.Square(8)
		default:
			raw = bench.Voter(9)
		}
		batch[i] = aigre.Batch{
			Name:    fmt.Sprintf("job%d", i),
			AIG:     aigre.FromInternal(raw),
			Script:  "b; rw; rfz; b",
			Options: aigre.Options{Parallel: true},
		}
	}
	results, metrics, err := aigre.RunBatch(context.Background(), batch,
		aigre.BatchOptions{Workers: 4, SharedCache: shared})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		ref, err := batch[i].AIG.Run(context.Background(), batch[i].Script, aigre.Options{
			Parallel: true, Cache: aigre.DisabledCache(),
		})
		if err != nil {
			t.Fatal(err)
		}
		rs, ss := ref.AIG.Stats(), r.AIG.Stats()
		if rs.Nodes != ss.Nodes || rs.Levels != ss.Levels {
			t.Errorf("job %d: shared-cache stats %+v != isolated %+v", i, ss, rs)
		}
	}
	if metrics.CacheStats.Misses == 0 {
		t.Errorf("shared cache saw no traffic: %+v", metrics.CacheStats)
	}
	if metrics.CacheStats.Hits == 0 {
		t.Errorf("duplicate jobs produced no shared-cache hits: %+v", metrics.CacheStats)
	}
}
