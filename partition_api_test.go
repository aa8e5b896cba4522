package aigre_test

import (
	"context"
	"runtime"
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
	if rep.Rollbacks != 0 {
		t.Errorf("unexpected rollbacks: %+v", rep)
	}
	if err := res.AIG.Check(); err != nil {
		t.Fatal(err)
	}
	if got := res.AIG.Stats().Nodes; got == 0 || got > a.NumAnds() {
		t.Fatalf("suspicious node count after balance: %d (in %d)", got, a.NumAnds())
	}
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
