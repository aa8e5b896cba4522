package aigre_test

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"aigre"
	"aigre/internal/bench"
	"aigre/internal/sched"
)

// TestEngineSubmitMatchesRunBatch checks the serve-mode path: jobs handed one
// at a time to Run on an open Engine produce the same networks as the same
// jobs run through RunBatch.
func TestEngineSubmitMatchesRunBatch(t *testing.T) {
	nets := []*aigre.Network{
		aigre.FromInternal(bench.Multiplier(6)),
		aigre.FromInternal(bench.Voter(4)),
		aigre.FromInternal(bench.Adder(12)),
	}
	opts := aigre.Options{Parallel: true}
	jobs := make([]aigre.Batch, len(nets))
	for i, n := range nets {
		jobs[i] = aigre.Batch{AIG: n, Script: aigre.ScriptRfResyn, Options: opts}
	}
	want, _, err := aigre.RunBatch(context.Background(), jobs, aigre.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	e, err := aigre.NewEngine(context.Background(), aigre.BatchOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i, b := range jobs {
		r, err := e.Run(context.Background(), b)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if r.Err != nil {
			t.Fatalf("job %d (%s): %v", i, r.Name, r.Err)
		}
		if got, w := r.AIG.Stats().Nodes, want[i].AIG.Stats().Nodes; got != w {
			t.Errorf("job %d (%s): %d nodes via Engine, %d via RunBatch", i, r.Name, got, w)
		}
		if r.NodesBefore != want[i].NodesBefore || r.NodesAfter != want[i].NodesAfter {
			t.Errorf("job %d: bookkeeping %d->%d vs %d->%d", i,
				r.NodesBefore, r.NodesAfter, want[i].NodesBefore, want[i].NodesAfter)
		}
	}
	m := e.Metrics()
	if m.Finished != len(jobs) || m.Failed != 0 {
		t.Errorf("metrics %+v, want %d finished", m, len(jobs))
	}
}

// TestEngineSubmitValidates checks that malformed jobs are rejected by Run and
// RunBatch before anything runs, each error carrying the "aigre:" prefix once,
// and that Run refuses work after Close.
func TestEngineSubmitValidates(t *testing.T) {
	e, err := aigre.NewEngine(context.Background(), aigre.BatchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := aigre.FromInternal(bench.Adder(8))
	for _, c := range []struct {
		what string
		job  aigre.Batch
	}{
		{"nil network", aigre.Batch{Name: "n", Script: "b"}},
		{"unparsable script", aigre.Batch{AIG: n, Script: "b; zz"}},
		{"unknown partition mode", aigre.Batch{AIG: n, Script: "b",
			Options: aigre.Options{Partition: aigre.PartitionOptions{Mode: aigre.PartitionMode(99)}}}},
	} {
		_, runErr := e.Run(context.Background(), c.job)
		_, _, batchErr := aigre.RunBatch(context.Background(), []aigre.Batch{c.job}, aigre.BatchOptions{Workers: 1})
		for route, err := range map[string]error{"Run": runErr, "RunBatch": batchErr} {
			if err == nil {
				t.Errorf("%s accepted a job with an %s", route, c.what)
			} else if k := strings.Count(err.Error(), "aigre:"); k != 1 {
				t.Errorf("%s, %s: %q carries \"aigre:\" %d times, want once", route, c.what, err, k)
			}
		}
	}
	if m := e.Metrics(); m.Finished+m.Failed+m.Cancelled != 0 {
		t.Errorf("rejected jobs ran something: %+v", m)
	}
	e.Close()
	if _, err := e.Run(context.Background(), aigre.Batch{AIG: n, Script: "b"}); !errors.Is(err, sched.ErrClosed) {
		t.Errorf("Run after Close: %v, want sched.ErrClosed", err)
	}
}

// TestEngineOnEvent checks the live supervision stream: with no journal
// file configured, BatchOptions.OnEvent still receives the attempt and
// outcome events of every job, in order, keyed by Batch.Name.
func TestEngineOnEvent(t *testing.T) {
	var mu sync.Mutex
	var events []aigre.JobEvent
	e, err := aigre.NewEngine(context.Background(), aigre.BatchOptions{
		Workers: 2,
		OnEvent: func(ev aigre.JobEvent) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(context.Background(), aigre.Batch{
		Name: "evjob", AIG: aigre.FromInternal(bench.Adder(8)), Script: "b; rw",
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	e.Close()

	mu.Lock()
	defer mu.Unlock()
	var kinds []string
	for _, ev := range events {
		if ev.Job != "evjob" {
			t.Fatalf("event for unexpected job %q: %+v", ev.Job, ev)
		}
		kinds = append(kinds, ev.Event)
	}
	if len(kinds) < 2 || kinds[0] != "attempt" || kinds[len(kinds)-1] != "done" {
		t.Fatalf("event stream %v, want attempt ... done", kinds)
	}
}
