package aigre_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"aigre"
	"aigre/internal/bench"
)

func outputDigest(t *testing.T, n *aigre.Network) string {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Write(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func suiteCase(t *testing.T, name string) *aigre.Network {
	t.Helper()
	a, ok := bench.ByName(name, 1)
	if !ok {
		t.Fatalf("unknown suite case %s", name)
	}
	return aigre.FromInternal(a)
}

// TestOutputIdentity pins the optimized networks byte for byte. The digests
// were recorded at the commit before the cut-function kernels were resized
// (width-halving ISOP, dense rewrite library); a change that reorders ISOP
// cubes, library entries or cut enumeration moves the output and fails here
// instead of silently moving the node counts. Update a digest only for a
// change that is meant to alter results.
func TestOutputIdentity(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ name, want string }{
		{"sixteen", "7c879b905bcf2decd36cf5ab466c325cec9f996652740ff7890185466dbbeee0"},
		{"mem_ctrl", "30c2807fb3fc3ffd496289e35e55aacf6c1c7d773a19f0e58631ba0220cc3055"},
		{"multiplier", "e100d288d86ffb928cddd9acd598500ad044220b8f113c1dbea69fc2e275613a"},
	} {
		res, err := suiteCase(t, c.name).Resyn2(ctx, aigre.Options{Cache: aigre.NewCache()})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := outputDigest(t, res.AIG); got != c.want {
			t.Errorf("sequential resyn2 of %s: output digest %s, want %s", c.name, got, c.want)
		}
	}

	// Sequential compress2rs, recorded before resubstitution moved onto the
	// scratch-based cone kit.
	for _, c := range []struct{ name, want string }{
		{"sixteen", "6d5cc5753594730fb31b67aa2a9636b0d5fe8a4b8a6e9f5cee94b2984e277681"},
		{"mem_ctrl", "ec43e0793dca51accace846cd95a9e33504f25120a70221c3f45de2338420c1c"},
	} {
		res, err := suiteCase(t, c.name).CompressRS(ctx, aigre.Options{Cache: aigre.NewCache()})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := outputDigest(t, res.AIG); got != c.want {
			t.Errorf("sequential compress2rs of %s: output digest %s, want %s", c.name, got, c.want)
		}
	}

	// Both partition modes go through the one stitcher; on this input they
	// produce the same bytes (the levels-mode pin was recorded when the
	// in-order strash replay became the test oracle).
	deep := aigre.FromInternal(bench.DeepNarrow(8, 500))
	for _, mode := range []aigre.PartitionMode{aigre.PartitionCones, aigre.PartitionLevels} {
		for _, workers := range []int{1, 2} {
			res, err := deep.Run(ctx, "b; rw", aigre.Options{Workers: workers, Cache: aigre.NewCache(),
				Partition: aigre.PartitionOptions{Mode: mode, TargetSize: 2000}})
			if err != nil {
				t.Fatalf("deep-narrow, %v at %d workers: %v", mode, workers, err)
			}
			const want = "03b89be42d950a7cf8dcdcb2d5fca03868433d71f7c7733d66a38e3e8ba0bfc8"
			if got := outputDigest(t, res.AIG); got != want {
				t.Errorf("%v-partitioned b; rw of DeepNarrow(8, 500) at %d workers: output digest %s, want %s", mode, workers, got, want)
			}
		}
	}
}

// TestNpnCountersExact checks that batching the NPN hit/miss counters in the
// evaluation workers loses nothing: every evaluated cut is one NPN probe, so
// hits+misses of an rw pass is a fixed number — the one the per-cut counters
// produced — at any worker count, and a shared-cache batch reports the sum
// over its jobs even when the cache carried traffic before the batch started.
func TestNpnCountersExact(t *testing.T) {
	ctx := context.Background()
	probes := func(s aigre.CacheStats) int64 { return s.NpnHits + s.NpnMisses }
	// Evaluated cuts of sequential rw and of the parallel evaluation kernel.
	// On multiplier no replacement changes a later node's cuts, so the two
	// agree; on mem_ctrl the sequential pass sees the graph change under it.
	cases := []struct {
		name             string
		seqCuts, parCuts int64
	}{
		{"multiplier", 76275, 76275},
		{"mem_ctrl", 10431, 11022},
	}
	for _, c := range cases {
		n := suiteCase(t, c.name)
		res, err := n.Rewrite(ctx, aigre.Options{Cache: aigre.NewCache()})
		if err != nil {
			t.Fatal(err)
		}
		if got := probes(res.CacheStats); got != c.seqCuts {
			t.Errorf("%s, sequential rw: %d NPN probes, want %d", c.name, got, c.seqCuts)
		}
		for _, workers := range []int{1, 2, 4} {
			res, err := n.Rewrite(ctx, aigre.Options{Parallel: true, Workers: workers, Cache: aigre.NewCache()})
			if err != nil {
				t.Fatal(err)
			}
			if got := probes(res.CacheStats); got != c.parCuts {
				t.Errorf("%s, parallel rw at %d workers: %d NPN probes, want %d", c.name, workers, got, c.parCuts)
			}
		}
	}

	c := cases[1]
	n := suiteCase(t, c.name)
	shared := aigre.NewCache()
	if _, err := n.Rewrite(ctx, aigre.Options{Cache: shared}); err != nil { // traffic before the batch
		t.Fatal(err)
	}
	jobs := []aigre.Batch{
		{Name: "seq", AIG: n, Script: "rw"},
		{Name: "par", AIG: n, Script: "rw", Options: aigre.Options{Parallel: true}},
		{Name: "par2", AIG: n, Script: "rw", Options: aigre.Options{Parallel: true}},
	}
	results, m, err := aigre.RunBatch(ctx, jobs, aigre.BatchOptions{Workers: 4, SharedCache: shared})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("batch job %s: %v", r.Name, r.Err)
		}
	}
	if got, want := probes(m.CacheStats), c.seqCuts+2*c.parCuts; got != want {
		t.Errorf("shared-cache batch: %d NPN probes, want %d", got, want)
	}
	if got, want := probes(shared.Stats()), 2*c.seqCuts+2*c.parCuts; got != want {
		t.Errorf("shared cache lifetime: %d NPN probes, want %d", got, want)
	}
}

// TestResyn2DecidedOnce checks that "resyn2 runs rwz twice in parallel mode"
// is decided on the parsed command list, once: Resyn2, Run and a one-job
// RunBatch, of the canonical script and of the same commands spelled without
// spaces, all return the same bytes.
func TestResyn2DecidedOnce(t *testing.T) {
	ctx := context.Background()
	n := suiteCase(t, "ac97_ctrl") // one and two rwz passes give different networks here
	opts := func() aigre.Options { return aigre.Options{Parallel: true, Workers: 2, Cache: aigre.NewCache()} }
	res, err := n.Resyn2(ctx, opts())
	if err != nil {
		t.Fatal(err)
	}
	want := outputDigest(t, res.AIG)
	for _, script := range []string{aigre.ScriptResyn2, "b;rw;rf;b;rw;rwz;b;rfz;rwz;b"} {
		res, err := n.Run(ctx, script, opts())
		if err != nil {
			t.Fatal(err)
		}
		if got := outputDigest(t, res.AIG); got != want {
			t.Errorf("Run(%q): output digest %s, Resyn2() gives %s", script, got, want)
		}
		batch, _, err := aigre.RunBatch(ctx, []aigre.Batch{{AIG: n, Script: script, Options: opts()}},
			aigre.BatchOptions{Workers: 2})
		if err != nil || batch[0].Err != nil {
			t.Fatal(err, batch[0].Err)
		}
		if got := outputDigest(t, batch[0].AIG); got != want {
			t.Errorf("RunBatch(%q): output digest %s, Resyn2() gives %s", script, got, want)
		}
	}
}
