package aigre_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"testing"

	"aigre"
	"aigre/internal/bench"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
	"aigre/internal/refactor"
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

	// Both partition modes go through the one stitcher, whose merge is the
	// dedup pass over the concatenated cones. The two modes stitch the same
	// network (16,000 ANDs, 1,001 levels) laid out in their own partition
	// order, so each has its digest (recorded when the stitch became
	// concatenation plus dedup).
	deep := aigre.FromInternal(bench.DeepNarrow(8, 500))
	for mode, want := range map[aigre.PartitionMode]string{
		aigre.PartitionCones:  "2a6a1569a3a0c21896f72809868a35e28fcc63a47b47d77e7269da73971d582a",
		aigre.PartitionLevels: "9de661200300069970a24fe0fdcacb8bf5aab6c2bceb7e8128c0207a2e88b659",
	} {
		for _, workers := range []int{1, 2} {
			res, err := deep.Run(ctx, "b; rw", aigre.Options{Workers: workers, Cache: aigre.NewCache(),
				Partition: aigre.PartitionOptions{Mode: mode, TargetSize: 2000}})
			if err != nil {
				t.Fatalf("deep-narrow, %v at %d workers: %v", mode, workers, err)
			}
			if got := outputDigest(t, res.AIG); got != want {
				t.Errorf("%v-partitioned b; rw of DeepNarrow(8, 500) at %d workers: output digest %s, want %s", mode, workers, got, want)
			}
		}
	}

	// The deep_part shape at a sixteenth of its size: strashed, chains c and
	// c+32 coincide, so every node is reached from two POs. Four one-owner
	// partitions, no seam conflict; 31,988 ANDs, 501 levels (recorded when
	// the stitch became concatenation plus dedup).
	shared := readBack(t, aigre.FromInternal(bench.DeepNarrow(64, 250)))
	for _, workers := range []int{1, 2} {
		res, err := shared.Run(ctx, "b; rw", aigre.Options{Workers: workers, Cache: aigre.NewCache(),
			Partition: aigre.PartitionOptions{Mode: aigre.PartitionCones, TargetSize: 1 << 13}})
		if err != nil {
			t.Fatalf("strashed deep-narrow at %d workers: %v", workers, err)
		}
		const want = "6d120986e8df048aea003f728f1b6557c5733a6172f797f5a266d69c36f26ec7"
		if got := outputDigest(t, res.AIG); got != want {
			t.Errorf("cone-partitioned b; rw of strashed DeepNarrow(64, 250) at %d workers: output digest %s, want %s", workers, got, want)
		}
		if rep := res.Partition; len(rep.Parts) != 4 || rep.SharedNodes != 0 || rep.ConflictsFound != 0 {
			t.Errorf("strashed DeepNarrow(64, 250) at %d workers: %d partitions, %+v", workers, len(rep.Parts), rep)
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
	if got, want := probes(*m.CacheStats), c.seqCuts+2*c.parCuts; got != want {
		t.Errorf("shared-cache batch: %d NPN probes, want %d", got, want)
	}
	if got, want := probes(shared.Stats()), 2*c.seqCuts+2*c.parCuts; got != want {
		t.Errorf("shared cache lifetime: %d NPN probes, want %d", got, want)
	}
}

// TestResyn2DecidedOnce checks that "resyn2 runs rwz twice in parallel mode"
// is decided on the parsed command list, once: Resyn2, Run and a one-job
// RunBatch, of the canonical script and of the same commands spelled without
// spaces, all return the same bytes. And scripts compose: resyn2 followed by
// b in one script gives the bytes of Resyn2 followed by a run of b, because
// the device rwz runs two passes wherever it appears.
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

	one := func() aigre.Options { return aigre.Options{Parallel: true, Workers: 1, Cache: aigre.NewCache()} }
	for _, name := range []string{"ac97_ctrl", "hyp"} {
		n := suiteCase(t, name)
		whole, err := n.Run(ctx, aigre.ScriptResyn2+"; b", one())
		if err != nil {
			t.Fatal(err)
		}
		first, err := n.Resyn2(ctx, one())
		if err != nil {
			t.Fatal(err)
		}
		then, err := first.AIG.Run(ctx, "b", one())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := outputDigest(t, whole.AIG), outputDigest(t, then.AIG); got != want {
			t.Errorf("%s: Run(resyn2; b) gives %d ANDs, Resyn2() then Run(b) %d: output digests differ",
				name, whole.AIG.Stats().Nodes, then.AIG.Stats().Nodes)
		}
	}
}

// profileDigest hashes the accounting columns of a device profile (kernel,
// launches, threads, work, span) in kernel-name order.
func profileDigest(rows []gpu.KernelProfile) string {
	rows = slices.Clone(rows)
	slices.SortFunc(rows, func(a, b gpu.KernelProfile) int { return strings.Compare(a.Kernel, b.Kernel) })
	h := sha256.New()
	for _, p := range rows {
		fmt.Fprintf(h, "%s %d %d %d %d\n", p.Kernel, p.Launches, p.Threads, p.Work, p.Span)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestCommandGoldens pins what the command executor and the engines' shared
// edit scaffold own: output bytes of every single-algorithm entry point, and
// for the device runs the modeled time to the nanosecond and the per-kernel
// accounting rows. Recorded at the commit before the executor existed
// (0854ff4); nothing here may move in a change that only restructures. rf2
// is the script "rf; rf" (on the device, a cleanup pass after each pass), and
// the device rwz runs two passes.
func TestCommandGoldens(t *testing.T) {
	ctx := context.Background()
	type algo struct {
		name string
		run  func(n *aigre.Network, o aigre.Options) (aigre.Result, error)
	}
	algos := []algo{
		{"b", func(n *aigre.Network, o aigre.Options) (aigre.Result, error) { return n.Balance(ctx, o) }},
		{"rf2", func(n *aigre.Network, o aigre.Options) (aigre.Result, error) { return n.Run(ctx, "rf; rf", o) }},
		{"rw", func(n *aigre.Network, o aigre.Options) (aigre.Result, error) { return n.Rewrite(ctx, o) }},
		{"rwz", func(n *aigre.Network, o aigre.Options) (aigre.Result, error) { return n.Run(ctx, "rwz", o) }},
		{"rs", func(n *aigre.Network, o aigre.Options) (aigre.Result, error) { return n.Resub(ctx, o) }},
		{"dedup", func(n *aigre.Network, o aigre.Options) (aigre.Result, error) { return n.Dedup(ctx, o) }},
		{"resyn2", func(n *aigre.Network, o aigre.Options) (aigre.Result, error) { return n.Resyn2(ctx, o) }},
	}
	for _, name := range []string{"sixteen", "mem_ctrl", "multiplier"} {
		n := suiteCase(t, name)
		for _, al := range algos {
			for _, parallel := range []bool{false, true} {
				if al.name == "resyn2" && !parallel {
					continue // TestOutputIdentity has the sequential digests
				}
				key := fmt.Sprintf("%s/%s/seq", name, al.name)
				if parallel {
					key = fmt.Sprintf("%s/%s/par", name, al.name)
				}
				res, err := al.run(n, aigre.Options{Parallel: parallel, Workers: 1, Cache: aigre.NewCache()})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := outputDigest(t, res.AIG)
				if res.Profile != nil { // ran on the device (Dedup always does)
					got += fmt.Sprintf(" %d %s", res.Modeled.Nanoseconds(), profileDigest(res.Profile))
				}
				if al.name == "resyn2" {
					got += fmt.Sprintf(" %d", len(res.Timings))
				}
				if want := commandGoldens[key]; got != want {
					t.Errorf("%q: %q, want %q", key, got, want)
					if res.Profile != nil {
						t.Logf("%s profile:\n%s", key, gpu.FormatProfile(res.Profile))
					}
				}
			}
		}

		// The Table I row: parallel refactoring with host-sequential replacement.
		d := gpu.New(1)
		out, _ := refactor.ParallelSeqReplace(d, n.Internal(), refactor.Options{Cache: rcache.New()})
		key := name + "/rf-seqreplace"
		got := fmt.Sprintf("%s %d", outputDigest(t, aigre.FromInternal(out)), d.Stats().SeqTime.Nanoseconds())
		if want := commandGoldens[key]; got != want {
			t.Errorf("%q: %q, want %q", key, got, want)
		}
	}
}

var commandGoldens = map[string]string{
	"sixteen/b/seq":            "bf8470c60b5c28f98fd2f5c9807df4e0915b967ac80cb394a3ee98a86af84f68",
	"sixteen/b/par":            "f9354383cf2831ac604a04bf6268b9453f173640b1086f2bc631254f3378a561 9849270 e54d5f122a577c01",
	"sixteen/rf2/seq":          "10cae196dc4d49abe104c6d1485c0cd040dfac02c0d562f7cef8e3cf9aa54c3c",
	"sixteen/rf2/par":          "766585a67be1dd86ab8282af3a5cb0048ddfa5b5cb9c66e06c1e748fdacf1a92 16431620 f7d4fd6d584ce278",
	"sixteen/rw/seq":           "cb8e697f943124c353f61fa25c36e8d135ec070a09cc915f8eb60f0c755cee63",
	"sixteen/rw/par":           "586d33521c0b1f5a4df1d88a6970875d121e8f10741fa1d30f701db1f5b0ce08 2037108 c35a58ac6b62839a",
	"sixteen/rwz/seq":          "cb8e697f943124c353f61fa25c36e8d135ec070a09cc915f8eb60f0c755cee63",
	"sixteen/rwz/par":          "21fb2aa12a271cab34f28bffce3611ad48aa8df83aa0482a4416e0d2a0f895ab 2569372 15580b42b9197b3e",
	"sixteen/rs/seq":           "171c8ca7097b8d54a91ea8c946e173b728dfc12a7dd69e9ef93a5aa1606162da",
	"sixteen/rs/par":           "09bc2b8d0438765c941630baa2324565dc55322ec697acacdd40cbc21a39b966 2033434 9fb405cd1e9581df",
	"sixteen/dedup/seq":        "5d0f70bf9d8f9d2664810a051efd4e630bc4a32309a50bd43d92faa76e236e61 2252230 67a1ed7affcfebfb",
	"sixteen/dedup/par":        "5d0f70bf9d8f9d2664810a051efd4e630bc4a32309a50bd43d92faa76e236e61 2252230 67a1ed7affcfebfb",
	"sixteen/resyn2/par":       "a8ba8d773c0eadd485211c8c234b2d6f95285140e469c0af9d400e36adf72d2c 59631980 7794fbe14d7faacc 10",
	"sixteen/rf-seqreplace":    "7959f6cff23f2f3e4504da33af8d73e806c7c8578aa5e1ca9c0858cbad3b319c 23020",
	"mem_ctrl/b/seq":           "11881b99dff1ebcb33ad775186cb1b45eb768884054492c7c57a1044501f428f",
	"mem_ctrl/b/par":           "ad57faf60fcb605d69e396194f7c64cd5fbc9be683ba81ff281a14a8891816aa 6997030 5c713dbd9fc87e83",
	"mem_ctrl/rf2/seq":         "ed2e5bb5b80648293e86016b199c4beecd30233aa0c1e81ce2ae51a8f4d08c56",
	"mem_ctrl/rf2/par":         "0487633400f54cae28e568bcb6a1e944ade23b86d8d8393a40f7a22725b67d9d 17743640 3f586317bf2f0381",
	"mem_ctrl/rw/seq":          "084ba5f5595265e29327c1d91dbe5544ccdde07e49aec806132a3e82d9520f4f",
	"mem_ctrl/rw/par":          "b578d42097af86f8792233c81041c3fc2f383b9a694618cabf530faec935b9bf 1293664 a23c7eaa39af899e",
	"mem_ctrl/rwz/seq":         "084ba5f5595265e29327c1d91dbe5544ccdde07e49aec806132a3e82d9520f4f",
	"mem_ctrl/rwz/par":         "3b2b30a9fb7e34c1b1c711b3a80ee88696a4f1201d78c1901972e8d3668722b5 1901810 0a8fd80520ab6496",
	"mem_ctrl/rs/seq":          "06b0d6e963fef50ac7272dca7bd53b9a1a6a98345084ef7a4829125144b6e0c8",
	"mem_ctrl/rs/par":          "06b0d6e963fef50ac7272dca7bd53b9a1a6a98345084ef7a4829125144b6e0c8 1634272 849a080e504d2926",
	"mem_ctrl/dedup/seq":       "a643178a755d297fe35fb317979b94882cf01ac2316f1830fdf9f0f6a6ab9bf8 1591570 6be77970523c1e2d",
	"mem_ctrl/dedup/par":       "a643178a755d297fe35fb317979b94882cf01ac2316f1830fdf9f0f6a6ab9bf8 1591570 6be77970523c1e2d",
	"mem_ctrl/resyn2/par":      "8092faea071090a2127b06328622f724009020004861fa041d9b7108a27dd6e6 51539406 50f23bd48204c044 10",
	"mem_ctrl/rf-seqreplace":   "db16291d43fe3300a041e3dcd63a3288507ef1b6a547395c89f6df2587c2703f 33188",
	"multiplier/b/seq":         "2d5aa107346e7edb17507641685cce377cb95530ae3abb93078f5cd9a73c06dc",
	"multiplier/b/par":         "2d5aa107346e7edb17507641685cce377cb95530ae3abb93078f5cd9a73c06dc 27263930 3dbee1da39e58f57",
	"multiplier/rf2/seq":       "b9e20660378a79dbb6f26af1925dd6c5ab4c998b3c034821caec4ba62b5c6324",
	"multiplier/rf2/par":       "ee695a667a496ee794458b2b926fbd503ddb64509a80af439a0b72ac7575786d 73776620 4a181d8b2d6c424c",
	"multiplier/rw/seq":        "98d4a8eda76345e2abaeee51c35dcdaec78c3b82af71fe63fa6c7a0b6821e6d5",
	"multiplier/rw/par":        "98d4a8eda76345e2abaeee51c35dcdaec78c3b82af71fe63fa6c7a0b6821e6d5 7707260 8cef52fafc6cee07",
	"multiplier/rwz/seq":       "98d4a8eda76345e2abaeee51c35dcdaec78c3b82af71fe63fa6c7a0b6821e6d5",
	"multiplier/rwz/par":       "98d4a8eda76345e2abaeee51c35dcdaec78c3b82af71fe63fa6c7a0b6821e6d5 11009820 4fc55d87922efd7d",
	"multiplier/rs/seq":        "f5f7887817409f2ffb5e6f623f5a50ab75046054476ef835e55f584688f2bb1f",
	"multiplier/rs/par":        "5e34010ba8841dc34fc673520a5f7dbbccd2bccd6fa20cf5a8b0f52cc3cb23a5 8902686 b06b766f998a33bc",
	"multiplier/dedup/seq":     "b9e20660378a79dbb6f26af1925dd6c5ab4c998b3c034821caec4ba62b5c6324 9129110 3d76932a5254b486",
	"multiplier/dedup/par":     "b9e20660378a79dbb6f26af1925dd6c5ab4c998b3c034821caec4ba62b5c6324 9129110 3d76932a5254b486",
	"multiplier/resyn2/par":    "ee695a667a496ee794458b2b926fbd503ddb64509a80af439a0b72ac7575786d 210126720 dbe90956a6af55da 10",
	"multiplier/rf-seqreplace": "395edfe2af14a46d8113b9a4873dda578c847e0fa462f0ddf5393150d7be4a3f 97308",
}
