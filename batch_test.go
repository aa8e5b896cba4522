package aigre_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"aigre"
	"aigre/internal/bench"
)

// TestRunBatchMatchesSequential is the batch-vs-sequential acceptance
// criterion: optimizing the example circuits through resyn2 as one
// concurrent batch over a small shared pool must yield node counts
// identical to running each network alone, one at a time.
func TestRunBatchMatchesSequential(t *testing.T) {
	nets := []*aigre.Network{
		aigre.FromInternal(bench.Multiplier(8)),
		aigre.FromInternal(bench.Voter(6)),
		aigre.FromInternal(bench.Adder(16)),
		aigre.FromInternal(bench.MemCtrl(1)),
	}
	opts := aigre.Options{Parallel: true}

	want := make([]int, len(nets))
	for i, n := range nets {
		res, err := n.Resyn2(context.Background(), opts)
		if err != nil {
			t.Fatalf("sequential run %d: %v", i, err)
		}
		want[i] = res.AIG.Stats().Nodes
	}

	jobs := make([]aigre.Batch, len(nets))
	for i, n := range nets {
		jobs[i] = aigre.Batch{AIG: n, Script: aigre.ScriptResyn2, Options: opts}
	}
	results, m, err := aigre.RunBatch(context.Background(), jobs, aigre.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch job %d (%s): %v", i, r.Name, r.Err)
		}
		if got := r.AIG.Stats().Nodes; got != want[i] {
			t.Errorf("job %d (%s): %d nodes in batch, %d alone", i, r.Name, got, want[i])
		}
		if r.NodesAfter != r.AIG.Stats().Nodes || r.NodesBefore != nets[i].Stats().Nodes {
			t.Errorf("job %d: node bookkeeping %d->%d vs %d->%d", i,
				r.NodesBefore, r.NodesAfter, nets[i].Stats().Nodes, r.AIG.Stats().Nodes)
		}
	}
	if m.PeakWorkers > 2 {
		t.Errorf("peak workers %d exceeds the 2-worker budget", m.PeakWorkers)
	}
	if m.Finished != len(nets) || m.Failed != 0 || m.Cancelled != 0 {
		t.Errorf("metrics %+v, want %d finished", m, len(nets))
	}
	if m.Utilization <= 0 || m.Utilization > 1.01 {
		t.Errorf("utilization %v out of range", m.Utilization)
	}
}

// TestRunBatchCancellation cancels a running batch and checks the report:
// jobs stop promptly with a wrapped context error, the metrics account for
// them, and the inputs are untouched.
func TestRunBatchCancellation(t *testing.T) {
	n := aigre.FromInternal(bench.Multiplier(8))
	nodesBefore := n.Stats().Nodes
	long := strings.Repeat(aigre.ScriptResyn2+"; ", 50) + "b"
	jobs := []aigre.Batch{
		{Name: "a", AIG: n, Script: long, Options: aigre.Options{Parallel: true}},
		{Name: "b", AIG: n, Script: long, Options: aigre.Options{Parallel: true}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	results, m, err := aigre.RunBatch(ctx, jobs, aigre.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if wall := time.Since(start); wall > 30*time.Second {
		t.Errorf("cancelled batch took %v to return", wall)
	}
	for i, r := range results {
		if !r.Cancelled {
			t.Errorf("job %d not marked cancelled (err = %v)", i, r.Err)
		}
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("job %d err = %v, want wrapped context.Canceled", i, r.Err)
		}
	}
	if m.Cancelled != len(jobs) {
		t.Errorf("metrics cancelled = %d, want %d", m.Cancelled, len(jobs))
	}
	if n.Stats().Nodes != nodesBefore {
		t.Errorf("input mutated: %d -> %d nodes", nodesBefore, n.Stats().Nodes)
	}
}

// TestRunBatchValidation pins the upfront batch checks.
func TestRunBatchValidation(t *testing.T) {
	ctx := context.Background()
	if _, _, err := aigre.RunBatch(ctx, nil, aigre.BatchOptions{}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, _, err := aigre.RunBatch(ctx, []aigre.Batch{{Script: "b"}}, aigre.BatchOptions{}); err == nil {
		t.Error("nil network accepted")
	}
	n := aigre.FromInternal(bench.Adder(4))
	if _, _, err := aigre.RunBatch(ctx, []aigre.Batch{{AIG: n, Script: "b; frobnicate"}}, aigre.BatchOptions{}); err == nil {
		t.Error("bad script accepted")
	}
}

// TestCancelledSingleRunReturnsPartial checks the ctx-first single-network
// API: cancelling mid-script returns the partial result and a wrapped
// context error within one command boundary.
func TestCancelledSingleRunReturnsPartial(t *testing.T) {
	n := aigre.FromInternal(bench.Multiplier(8))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := n.Run(ctx, aigre.ScriptResyn2, aigre.Options{Parallel: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if res.AIG == nil {
		t.Fatal("cancelled run lost the partial result")
	}
	if got := res.AIG.Stats().Nodes; got != n.Stats().Nodes {
		t.Errorf("pre-cancelled run still optimized: %d vs %d nodes", got, n.Stats().Nodes)
	}

	// Balance is the one-command script "b" on the same engine; same contract.
	if _, err := n.Balance(ctx, aigre.Options{Parallel: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("Balance err = %v, want wrapped context.Canceled", err)
	}
}

// TestNetworkCheck exercises the public invariant validator alongside the
// unstable Internal/FromInternal escape hatches.
func TestNetworkCheck(t *testing.T) {
	n := aigre.FromInternal(bench.Adder(8))
	if err := n.Check(); err != nil {
		t.Fatalf("well-formed network fails Check: %v", err)
	}
	if n.Internal() == nil {
		t.Fatal("Internal returned nil")
	}
}
