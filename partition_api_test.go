package aigre_test

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aigre"
	"aigre/internal/alloctest"
	"aigre/internal/bench"
)

// TestPartitionedResyn2MatchesWhole is the stitch-equivalence acceptance
// test: on Table-III circuit families, running resyn2 partition-parallel
// must produce a network fully combinationally equivalent (random +
// exhaustive simulation, then SAT) to the whole-network resyn2 result.
func TestPartitionedResyn2MatchesWhole(t *testing.T) {
	cases := []struct {
		name string
		mode aigre.PartitionMode
	}{
		{"multiplier", aigre.PartitionCones},
		{"mem_ctrl", aigre.PartitionCones},
		{"sin", aigre.PartitionLevels},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name+"/"+c.mode.String(), func(t *testing.T) {
			t.Parallel()
			a, ok := bench.ByName(c.name, 1)
			if !ok {
				t.Fatalf("unknown circuit %q", c.name)
			}
			n := aigre.FromInternal(a)
			whole, err := n.Resyn2(context.Background(), aigre.Options{})
			if err != nil {
				t.Fatal(err)
			}
			part, err := n.Resyn2(context.Background(), aigre.Options{
				Workers: 4,
				Partition: aigre.PartitionOptions{
					Mode:       c.mode,
					TargetSize: a.NumAnds()/5 + 1,
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			rep := part.Partition
			if rep == nil {
				t.Fatal("partitioned run returned no partition report")
			}
			if len(rep.Parts) < 2 {
				t.Fatalf("expected multiple partitions, got %d", len(rep.Parts))
			}
			if err := part.AIG.Check(); err != nil {
				t.Fatal(err)
			}
			eq, err := part.AIG.EquivalentTo(whole.AIG)
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatalf("partitioned resyn2 differs from whole-network resyn2 (%+v)", rep)
			}
		})
	}
}

// TestPartitionMillionNodeSmoke optimizes a million-node deep/narrow AIG
// partition-parallel — the adversarial shape that starves kernel-level
// parallelism but cone-partitions perfectly. Guarded by -short: the run
// takes a few seconds.
func TestPartitionMillionNodeSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node smoke skipped in -short mode")
	}
	if alloctest.RaceEnabled {
		t.Skip("million-node smoke skipped under -race; check.sh runs it without")
	}
	a := bench.DeepNarrow(64, 4000)
	if a.NumAnds() < 1_000_000 {
		t.Fatalf("generator undershot: %d AND nodes", a.NumAnds())
	}
	n := aigre.FromInternal(a)
	res, err := n.Run(context.Background(), "b", aigre.Options{
		Workers: 8,
		Partition: aigre.PartitionOptions{
			Mode:       aigre.PartitionCones,
			TargetSize: 1 << 17,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Partition
	if rep == nil || len(rep.Parts) < 2 {
		t.Fatalf("expected a multi-partition run, got %+v", rep)
	}
	if rep.Rollbacks != 0 || rep.SharedNodes != 0 {
		t.Errorf("unexpected rollbacks or shared nodes: %+v", rep)
	}
	if err := res.AIG.Check(); err != nil {
		t.Fatal(err)
	}
	if got := res.AIG.Stats().Nodes; got == 0 || got > a.NumAnds() {
		t.Fatalf("suspicious node count after balance: %d (in %d)", got, a.NumAnds())
	}

	// The benchmark's deep_part workload: the same network as aigre.Read
	// hands it over (strashed, so chains c and c+32 are one chain and POs
	// 32..63 drive roots that POs 0..31 already claimed) through "b; rw" at
	// 2^17 nodes per partition. Four partitions own the 32 distinct chains,
	// nothing is shared and the stitch has no conflict to break; 511,988
	// ANDs, 8,001 levels (bytes recorded when the stitch became
	// concatenation plus dedup).
	n = readBack(t, n)
	for _, workers := range []int{1, 2, 4} {
		res, err := n.Run(context.Background(), "b; rw", aigre.Options{Workers: workers, Cache: aigre.NewCache(),
			Partition: aigre.PartitionOptions{Mode: aigre.PartitionCones, TargetSize: 1 << 17}})
		if err != nil {
			t.Fatal(err)
		}
		rep := res.Partition
		if len(rep.Parts) != 4 || rep.SharedNodes != 0 || rep.ConflictsFound != 0 || rep.Rollbacks != 0 || rep.StitchRounds != 1 {
			t.Errorf("deep_part at %d workers: %d partitions, %+v", workers, len(rep.Parts), rep)
		}
		const want = "441ce13c4228dd542524843e3ed11e04f7b918df63714c3772663df7ac7e3018"
		if got := outputDigest(t, res.AIG); got != want {
			t.Errorf("deep_part at %d workers: output digest %s, want %s", workers, got, want)
		}
	}
}

// readBack returns n as aigre.Read returns its AIGER encoding: strashed.
func readBack(t *testing.T, n *aigre.Network) *aigre.Network {
	t.Helper()
	var buf bytes.Buffer
	if err := n.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := aigre.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestPartitionScalingSmoke is the fast multicore gate: a reduced deep/narrow
// network (~100k nodes, same shape as the million-node benchmark) is optimized
// partition-parallel at one worker and at four, and the four-worker run must
// finish faster. Runners with fewer than four CPUs cannot show a wall-time
// speedup, so the test skips there; the benchmark's deep_part workload and
// its partition.speedup probe carry the full scaling picture.
func TestPartitionScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke skipped in -short mode")
	}
	if alloctest.RaceEnabled {
		t.Skip("scaling smoke skipped under -race; timings are not meaningful")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("scaling smoke needs >=4 CPUs, have %d", runtime.NumCPU())
	}
	a := bench.DeepNarrow(16, 1500)
	n := aigre.FromInternal(a)
	opts := func(workers int) aigre.Options {
		return aigre.Options{
			Workers: workers,
			Partition: aigre.PartitionOptions{
				Mode:       aigre.PartitionCones,
				TargetSize: a.NumAnds()/8 + 1,
			},
		}
	}
	// Best-of-two per worker count damps scheduler noise without turning the
	// smoke into a benchmark.
	wall := func(workers int) time.Duration {
		best := time.Duration(0)
		for round := 0; round < 2; round++ {
			start := time.Now()
			res, err := n.Run(context.Background(), "b; rw", opts(workers))
			if err != nil {
				t.Fatal(err)
			}
			if res.Partition == nil || len(res.Partition.Parts) < 2 {
				t.Fatalf("expected a multi-partition run, got %+v", res.Partition)
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		return best
	}
	w1 := wall(1)
	w4 := wall(4)
	if w4 >= w1 {
		t.Errorf("no wall-time speedup from workers: W1 %v, W4 %v (speedup %.2fx)",
			w1, w4, float64(w1)/float64(w4))
	} else {
		t.Logf("W1 %v, W4 %v (speedup %.2fx)", w1, w4, float64(w1)/float64(w4))
	}
}

// TestPartitionedBatchJob pins the batch integration: a job with
// Options.Partition set fans its partitions onto the batch's shared pool and
// reports per-partition rows next to its ordinary batch statistics.
func TestPartitionedBatchJob(t *testing.T) {
	a, ok := bench.ByName("ac97_ctrl", 1)
	if !ok {
		t.Fatal("ac97_ctrl missing from suite")
	}
	n := aigre.FromInternal(a)
	jobs := []aigre.Batch{
		{Name: "whole", AIG: n, Script: "b; rw"},
		{Name: "parted", AIG: n, Script: "b; rw", Options: aigre.Options{
			Partition: aigre.PartitionOptions{Mode: aigre.PartitionCones, TargetSize: a.NumAnds()/4 + 1},
		}},
	}
	results, _, err := aigre.RunBatch(context.Background(), jobs, aigre.BatchOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Partition != nil {
		t.Error("unpartitioned job grew a partition report")
	}
	r := results[1]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Partition == nil || len(r.Partition.Parts) < 2 {
		t.Fatalf("partitioned job reported no partitions: %+v", r.Partition)
	}
	if r.NodesAfter == 0 {
		t.Error("batch result missing after-stats")
	}
	eq, err := r.AIG.EquivalentTo(n)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("partitioned batch job result not equivalent to input")
	}
}

// TestPartitionedJobUnderFullPolicy runs a partitioned job under a deadline,
// a retry budget and a watchdog: the job's attempt is the one supervised
// unit, so it makes one clean attempt with the zero-policy run's output
// bytes, and the journal holds that attempt and its done, nothing under a
// partition's name.
func TestPartitionedJobUnderFullPolicy(t *testing.T) {
	job := aigre.Batch{Name: "deep", AIG: aigre.FromInternal(bench.DeepNarrow(8, 500)), Script: "b; rw",
		Options: aigre.Options{Partition: aigre.PartitionOptions{Mode: aigre.PartitionCones, TargetSize: 2000}}}
	run := func(pol aigre.Policy) (aigre.Result, aigre.BatchMetrics, map[string][]string) {
		t.Helper()
		var mu sync.Mutex
		events := map[string][]string{}
		rs, m, err := aigre.RunBatch(context.Background(), []aigre.Batch{job}, aigre.BatchOptions{
			Workers: 2, Policy: pol,
			OnEvent: func(ev aigre.JobEvent) {
				mu.Lock()
				events[ev.Job] = append(events[ev.Job], ev.Event)
				mu.Unlock()
			}})
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Err != nil {
			t.Fatal(rs[0].Err)
		}
		return rs[0], m, events
	}
	want, _, _ := run(aigre.Policy{})
	r, m, events := run(aigre.Policy{Retries: 2, JobTimeout: time.Minute, StuckTimeout: 2 * time.Second})
	if got, w := outputDigest(t, r.AIG), outputDigest(t, want.AIG); got != w {
		t.Errorf("output %s under the policy, %s without", got, w)
	}
	if r.Attempts != 1 || m.Retries != 0 {
		t.Errorf("Attempts = %d, Metrics.Retries = %d; want 1 and 0", r.Attempts, m.Retries)
	}
	if r.Partition == nil || len(r.Partition.Parts) < 2 {
		t.Fatalf("job was not partitioned: %+v", r.Partition)
	}
	if len(events) != 1 || strings.Join(events["deep"], ",") != "attempt,done" {
		t.Errorf("journal %v, want the job's own attempt,done only", events)
	}
}

func TestParsePartitionMode(t *testing.T) {
	for s, want := range map[string]aigre.PartitionMode{
		"off": aigre.PartitionOff, "": aigre.PartitionOff,
		"cones": aigre.PartitionCones, "levels": aigre.PartitionLevels,
	} {
		got, err := aigre.ParsePartitionMode(s)
		if err != nil || got != want {
			t.Errorf("ParsePartitionMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := aigre.ParsePartitionMode("diag"); err == nil {
		t.Error("ParsePartitionMode accepted an unknown mode")
	}
}

// TestConePartitionQuality pins what one-owner cone partitions buy on ordinary
// circuits: over the suite at scale 2, cone-partitioned "b; rw" and resyn2 at
// an eighth of the network per partition end within 2 % of the whole-network
// run's AND count (partitions that each optimized their own copy of shared
// logic ended at 2.7x on twentythree and 2.1-3.1x on square), with full CEC
// on the families the benchmark also checks in full. Depth is what ownership
// costs: a later partition balances with the nodes it reads from earlier ones
// arriving at level 0, so the result is up to 3 levels (7.7 % on ac97_ctrl)
// deeper than the whole-network run's; the table bounds that at 10 % and at
// the input's own depth.
func TestConePartitionQuality(t *testing.T) {
	if testing.Short() {
		t.Skip("suite-wide quality table skipped in -short mode")
	}
	if alloctest.RaceEnabled {
		t.Skip("suite-wide quality table skipped under -race; check.sh runs it without")
	}
	fullCEC := map[string]bool{"twentythree": true, "twenty": true, "sixteen": true,
		"mem_ctrl": true, "sin": true, "ac97_ctrl": true, "vga_lcd": true}
	ctx := context.Background()
	for _, c := range bench.Suite(2) {
		n := aigre.FromInternal(c.Build())
		for _, script := range []string{"b; rw", aigre.ScriptResyn2} {
			whole, err := n.Run(ctx, script, aigre.Options{Cache: aigre.NewCache()})
			if err != nil {
				t.Fatal(err)
			}
			part, err := n.Run(ctx, script, aigre.Options{Workers: 2, Cache: aigre.NewCache(),
				Partition: aigre.PartitionOptions{Mode: aigre.PartitionCones, TargetSize: n.Stats().Nodes/8 + 1}})
			if err != nil {
				t.Fatal(err)
			}
			w, p := whole.AIG.Stats().Nodes, part.AIG.Stats().Nodes
			wl, pl := whole.AIG.Stats().Levels, part.AIG.Stats().Levels
			t.Logf("%s %q: %d ANDs / %d levels whole, %d / %d in %d partitions (input %d levels)",
				c.Name, script, w, wl, p, pl, len(part.Partition.Parts), n.Stats().Levels)
			if float64(p) > 1.02*float64(w) {
				t.Errorf("%s %q: %d ANDs cone-partitioned, %d whole-network (%.2fx)", c.Name, script, p, w, float64(p)/float64(w))
			}
			if float64(pl) > 1.10*float64(wl) || pl > n.Stats().Levels {
				t.Errorf("%s %q: %d levels cone-partitioned, %d whole-network, %d in the input", c.Name, script, pl, wl, n.Stats().Levels)
			}
			if part.Partition.SharedNodes != 0 || part.Partition.Rollbacks != 0 {
				t.Errorf("%s %q: %+v", c.Name, script, part.Partition)
			}
			if fullCEC[c.Name] {
				if eq, err := part.AIG.EquivalentTo(n); err != nil || !eq {
					t.Errorf("%s %q: cone-partitioned result not equivalent to the input (%v)", c.Name, script, err)
				}
			}
		}
	}
}

// TestSequentialPartitionedJobNotWatched runs a sequential partitioned job
// under a watchdog far shorter than the job: a sequential script launches no
// kernel and so never beats, and a job is watched only when its script runs on
// a device, partitioned or not. It must make one unpreempted attempt with the
// zero-policy run's output bytes.
func TestSequentialPartitionedJobNotWatched(t *testing.T) {
	if alloctest.RaceEnabled {
		t.Skip("two sequential resyn2 runs of a 16k-node network; too slow under -race")
	}
	job := aigre.Batch{Name: "deep", AIG: aigre.FromInternal(bench.DeepNarrow(8, 2000)), Script: aigre.ScriptResyn2,
		Options: aigre.Options{Partition: aigre.PartitionOptions{Mode: aigre.PartitionCones, TargetSize: 2000}}}
	run := func(pol aigre.Policy) aigre.Result {
		t.Helper()
		rs, _, err := aigre.RunBatch(context.Background(), []aigre.Batch{job}, aigre.BatchOptions{Workers: 2, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return rs[0]
	}
	want := run(aigre.Policy{})
	r := run(aigre.Policy{StuckTimeout: 100 * time.Millisecond})
	if r.Err != nil || r.Preemptions != 0 || r.Attempts != 1 {
		t.Fatalf("watched sequential partitioned job: err=%v preemptions=%d attempts=%d", r.Err, r.Preemptions, r.Attempts)
	}
	if got, w := outputDigest(t, r.AIG), outputDigest(t, want.AIG); got != w {
		t.Errorf("output %s under the watchdog, %s without", got, w)
	}
}

// TestPartitionLeaseCapKeepsBytes runs one parallel partitioned job with
// Options.Workers 0, 1 and 2 on a 3-worker engine: the cap only narrows each
// partition's lease, so the output bytes are the same.
func TestPartitionLeaseCapKeepsBytes(t *testing.T) {
	in := aigre.FromInternal(bench.DeepNarrow(8, 500))
	var want string
	for _, workers := range []int{0, 1, 2} {
		job := aigre.Batch{Name: "deep", AIG: in, Script: "b; rw",
			Options: aigre.Options{Parallel: true, Workers: workers, Cache: aigre.NewCache(),
				Partition: aigre.PartitionOptions{Mode: aigre.PartitionCones, TargetSize: 2000}}}
		rs, _, err := aigre.RunBatch(context.Background(), []aigre.Batch{job}, aigre.BatchOptions{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Err != nil {
			t.Fatal(rs[0].Err)
		}
		if rs[0].Partition == nil || len(rs[0].Partition.Parts) < 2 {
			t.Fatalf("Workers %d: job was not partitioned: %+v", workers, rs[0].Partition)
		}
		got := outputDigest(t, rs[0].AIG)
		if workers == 0 {
			want = got
		} else if got != want {
			t.Errorf("Options.Workers %d: output %s, %s at 0", workers, got, want)
		}
	}
}
