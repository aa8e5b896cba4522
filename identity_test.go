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
// change that is meant to alter results. The sequential and levels-partitioned
// digests were re-pinned when Compact began keeping the ids of a canonical
// network with nothing dangling, and flow.Run began rehashing an input that
// is not Clean.
func TestOutputIdentity(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct{ name, want string }{
		{"sixteen", "391a5326c6fceead356c9f9e808193b10f0516537dab2906144cf58a3f65ada8"},
		{"mem_ctrl", "5b15b6c05a86ef36fd6e8040e16d98571c58a81d4a25f0b8e56a89a18abba52c"},
		{"multiplier", "fb2820006372c8c4d8e55f77cf0af6442cd9c6e924ce730d80150c79a6b5b5fa"},
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
		{"sixteen", "5f54d2d4c205d105ae984e9ea7c659a9b9ca4320d550608e00bfb17aec6f4ee0"},
		{"mem_ctrl", "7fc3d4e670b6aa6dd3a21d9118c697889aa963469b5b7ac49bfd08013665db01"},
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
		aigre.PartitionLevels: "eec4e606dc55e2034a48541057c8874eeea6ce0ac7bf3fd63c1dab1308b66a18",
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

// TestSharedCacheTrafficExact: every refactoring cone is one program-cache
// probe, hit or miss, so the probes of an rf pass are a fixed number at any
// worker count, and a cache shared by a batch's jobs through Options.Cache
// counts the sum over its lifetime: the traffic before the batch plus every
// job's.
func TestSharedCacheTrafficExact(t *testing.T) {
	ctx := context.Background()
	n := suiteCase(t, "mem_ctrl")
	probes := func(opts aigre.Options) int64 {
		t.Helper()
		opts.Cache = aigre.NewCache()
		res, err := n.Refactor(ctx, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res.CacheStats.Lookups()
	}
	seq, par := probes(aigre.Options{}), probes(aigre.Options{Parallel: true, Workers: 1})
	for _, workers := range []int{2, 4} {
		if got := probes(aigre.Options{Parallel: true, Workers: workers}); got != par {
			t.Errorf("parallel rf at %d workers: %d probes, at 1 worker %d", workers, got, par)
		}
	}

	shared := aigre.NewCache()
	if _, err := n.Refactor(ctx, aigre.Options{Cache: shared}); err != nil { // traffic before the batch
		t.Fatal(err)
	}
	jobs := []aigre.Batch{
		{Name: "seq", AIG: n, Script: "rf", Options: aigre.Options{Cache: shared}},
		{Name: "par", AIG: n, Script: "rf", Options: aigre.Options{Parallel: true, Cache: shared}},
		{Name: "par2", AIG: n, Script: "rf", Options: aigre.Options{Parallel: true, Cache: shared}},
	}
	results, _, err := aigre.RunBatch(ctx, jobs, aigre.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("batch job %s: %v", r.Name, r.Err)
		}
	}
	st := shared.Stats()
	if got, want := st.Lookups(), 2*seq+2*par; got != want {
		t.Errorf("shared cache lifetime: %d probes, want %d", got, want)
	}
	if st.Hits == 0 {
		t.Errorf("repeated jobs on one cache produced no hits: %+v", st)
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
// (0854ff4); nothing here may move in a change that only restructures. The
// modeled and profile fields of the rw, rwz, rs and resyn2 device rows were
// re-pinned when the flow stopped running a cleanup pass after rw, rwz and
// rs; every output digest stayed. The digests of 24 rows, and the modeled
// and profile fields of the rf2, multiplier rs and resyn2 device rows, were
// re-pinned when Compact began keeping the ids of a canonical network with
// nothing dangling, flow.Run began rehashing an input that is not Clean, and
// the parallel replacement stopped compacting before its Section III-F pass.
// The modeled and profile fields of the rf2 and resyn2 device rows, and the
// digest of mem_ctrl/rf2/par, were re-pinned when the parallel replacement
// stopped sharing through its own hash table and left every share to the
// Section III-F pass: two launches fewer per rf pass, and on mem_ctrl a
// duplicate class of two new cones keeps its lowest (level, id) member
// instead of its first insert (the same 1,756 ANDs and 43 levels).
// rf2 is the script "rf; rf" (on the device,
// each pass's replacement runs the Section III-F pass), and the device rwz
// runs two passes.
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
		got := fmt.Sprintf("%s %d", outputDigest(t, aigre.FromInternal(out)), gpu.TotalProfile(d.Profile()).Seq.Nanoseconds())
		if want := commandGoldens[key]; got != want {
			t.Errorf("%q: %q, want %q", key, got, want)
		}
	}
}

var commandGoldens = map[string]string{
	"sixteen/b/seq":            "488a56f48931031bdc3c335b3dc7e893d70b2586a02f5e5fcc5dd8a8a0b7dc75",
	"sixteen/b/par":            "f9354383cf2831ac604a04bf6268b9453f173640b1086f2bc631254f3378a561 9849270 e54d5f122a577c01",
	"sixteen/rf2/seq":          "8c6065a6274729d66baf4e1caf844a66449a6cd55805a860cf065d0d292c568f",
	"sixteen/rf2/par":          "1ac6c8da96e1a91ed9ac163d9fa451731e417afabcf722ae9e57994918fdb439 16311120 526925a7d3f77d57",
	"sixteen/rw/seq":           "dc484b457a1103b2e475b779df36b870d248dfd5a0672f1941187ac277a26630",
	"sixteen/rw/par":           "7a40c6108ebeeda30cba0d74601d4b2fa100784e05aac6b4fe25a8f3cd8a7540 55148 935e146784953b13",
	"sixteen/rwz/seq":          "dc484b457a1103b2e475b779df36b870d248dfd5a0672f1941187ac277a26630",
	"sixteen/rwz/par":          "02cc6f864fb85090c0aa2cd9e6ed927e87440d7059045c6c042df91b65c202ad 647472 ee3df4f076d0226c",
	"sixteen/rs/seq":           "e62b92a0912f67214e8b2eea170d7ac0b408a4a644827578122d71d0fdcda914",
	"sixteen/rs/par":           "6060932088069ac8fd7169e31eaf799c7c36cb9375e68fd5daca2e5f77d07959 51474 23206c5b1a086a0f",
	"sixteen/dedup/seq":        "5a99f654f3e063d92b5217bfa6427ccc5182ec12b00330a985ad190a30b31d24 2252230 67a1ed7affcfebfb",
	"sixteen/dedup/par":        "5a99f654f3e063d92b5217bfa6427ccc5182ec12b00330a985ad190a30b31d24 2252230 67a1ed7affcfebfb",
	"sixteen/resyn2/par":       "0c7d85699a1e68441c37ca3b6c5be76207ed9be5a9c92d6ed8585379a6130a93 52424314 8da1650f0c3a0e18 10",
	"sixteen/rf-seqreplace":    "a3356f8d72efc6935500fddda640ef535ff592426d995898505a46f16041fbf1 23020",
	"mem_ctrl/b/seq":           "b00112faf3a4e3f81d1a31680a5f5e99d9a1444c74b8f4f62fc7d8ef8a6fd66c",
	"mem_ctrl/b/par":           "ad57faf60fcb605d69e396194f7c64cd5fbc9be683ba81ff281a14a8891816aa 6997030 5c713dbd9fc87e83",
	"mem_ctrl/rf2/seq":         "ed2e5bb5b80648293e86016b199c4beecd30233aa0c1e81ce2ae51a8f4d08c56",
	"mem_ctrl/rf2/par":         "dc1da39a7350d845192992299d72aaaa186dcafcea1e06495ecde1b7c3c82825 17653120 43902b6a30701f80",
	"mem_ctrl/rw/seq":          "084ba5f5595265e29327c1d91dbe5544ccdde07e49aec806132a3e82d9520f4f",
	"mem_ctrl/rw/par":          "b578d42097af86f8792233c81041c3fc2f383b9a694618cabf530faec935b9bf 152544 a4988f18fd732f19",
	"mem_ctrl/rwz/seq":         "084ba5f5595265e29327c1d91dbe5544ccdde07e49aec806132a3e82d9520f4f",
	"mem_ctrl/rwz/par":         "3b2b30a9fb7e34c1b1c711b3a80ee88696a4f1201d78c1901972e8d3668722b5 790720 a854c67d950196f6",
	"mem_ctrl/rs/seq":          "06b0d6e963fef50ac7272dca7bd53b9a1a6a98345084ef7a4829125144b6e0c8",
	"mem_ctrl/rs/par":          "06b0d6e963fef50ac7272dca7bd53b9a1a6a98345084ef7a4829125144b6e0c8 72732 f7a21b0054c98021",
	"mem_ctrl/dedup/seq":       "a643178a755d297fe35fb317979b94882cf01ac2316f1830fdf9f0f6a6ab9bf8 1591570 6be77970523c1e2d",
	"mem_ctrl/dedup/par":       "a643178a755d297fe35fb317979b94882cf01ac2316f1830fdf9f0f6a6ab9bf8 1591570 6be77970523c1e2d",
	"mem_ctrl/resyn2/par":      "5187be72936e6ce32bc3cf9baa3a6e7c17741ca9b89641cc85eef4ab251e2c27 45893486 3ba9e71151f946bc 10",
	"mem_ctrl/rf-seqreplace":   "db16291d43fe3300a041e3dcd63a3288507ef1b6a547395c89f6df2587c2703f 33188",
	"multiplier/b/seq":         "1119b5c73efc8331fa63863def7a64468370392e9e186ea8a4438c63cf4ed020",
	"multiplier/b/par":         "1119b5c73efc8331fa63863def7a64468370392e9e186ea8a4438c63cf4ed020 27263930 3dbee1da39e58f57",
	"multiplier/rf2/seq":       "d70eaa5cc1938822ba50858a0326a8357680f1a77a25919d8643879c487bd633",
	"multiplier/rf2/par":       "c17637e5f3f3e7d1b93ad68a8a90fe2c5af12935c96d5af13a8ec80c9da2abbe 73686400 a385ee4b523f9fe0",
	"multiplier/rw/seq":        "98d4a8eda76345e2abaeee51c35dcdaec78c3b82af71fe63fa6c7a0b6821e6d5",
	"multiplier/rw/par":        "98d4a8eda76345e2abaeee51c35dcdaec78c3b82af71fe63fa6c7a0b6821e6d5 379960 4c07a09340ca6c77",
	"multiplier/rwz/seq":       "98d4a8eda76345e2abaeee51c35dcdaec78c3b82af71fe63fa6c7a0b6821e6d5",
	"multiplier/rwz/par":       "98d4a8eda76345e2abaeee51c35dcdaec78c3b82af71fe63fa6c7a0b6821e6d5 3682520 432079e83b4367ab",
	"multiplier/rs/seq":        "f5f7887817409f2ffb5e6f623f5a50ab75046054476ef835e55f584688f2bb1f",
	"multiplier/rs/par":        "12fe1c80a24bfdac294bbffdcb62fc805d554b46018df3ad1183b53946b8bb51 435186 cb6ba7a31337aeca",
	"multiplier/dedup/seq":     "d70eaa5cc1938822ba50858a0326a8357680f1a77a25919d8643879c487bd633 9129110 3d76932a5254b486",
	"multiplier/dedup/par":     "d70eaa5cc1938822ba50858a0326a8357680f1a77a25919d8643879c487bd633 9129110 3d76932a5254b486",
	"multiplier/resyn2/par":    "c17637e5f3f3e7d1b93ad68a8a90fe2c5af12935c96d5af13a8ec80c9da2abbe 178925520 b7c86b6c89026fd9 10",
	"multiplier/rf-seqreplace": "395edfe2af14a46d8113b9a4873dda578c847e0fa462f0ddf5393150d7be4a3f 97308",
}
