package sched

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aigre/internal/aig"
	"aigre/internal/flow"
	"aigre/internal/gpu"
)

func testAIG(seed int64) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	return aig.Random(rng, 10, 600, 6).Rehash()
}

// TestPoolExecuteBudget drives Execute directly and checks the budget
// invariant at its source: however many tasks one call carries, and however
// many calls run at once, no more than W bodies execute concurrently.
func TestPoolExecuteBudget(t *testing.T) {
	p := gpu.NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tasks := make([]func(), 8)
			for i := range tasks {
				tasks[i] = func() { time.Sleep(time.Millisecond) }
			}
			p.Execute(tasks)
		}()
	}
	wg.Wait()
	if peak := p.PeakWorkers(); peak > 3 {
		t.Errorf("peak concurrency %d exceeds pool size 3", peak)
	}
	if p.BusyTime() <= 0 {
		t.Error("pool recorded no busy time")
	}
}

// TestEngineSharedBudgetStress is the acceptance criterion for the shared
// worker budget: many concurrent parallel jobs over a 2-worker pool must
// never occupy more than 2 host workers, and each job's result must equal
// the same script run alone (the parallel engines are deterministic, so
// scheduling may not change the optimization outcome).
func TestEngineSharedBudgetStress(t *testing.T) {
	const njobs = 8
	jobs := make([]Job, njobs)
	want := make([]int, njobs)
	for i := range jobs {
		a := testAIG(int64(100 + i%3)) // a few distinct circuits, reused
		jobs[i] = Job{
			Name:   a.Name,
			AIG:    a,
			Script: flow.RfResyn,
			Config: flow.Config{Parallel: true},
		}
		// Reference: the same job alone over its own fresh pool.
		ref, _ := RunJobs(context.Background(), mustPool(t, 2), []Job{jobs[i]}, 1)
		if ref[0].Err != nil {
			t.Fatalf("reference run failed: %v", ref[0].Err)
		}
		want[i] = ref[0].NodesAfter
	}

	pool := gpu.NewPool(2)
	defer pool.Close()
	results, m := RunJobs(context.Background(), pool, jobs, 0)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("job %d failed: %v", i, r.Err)
		}
		if r.NodesAfter != want[i] {
			t.Errorf("job %d: %d nodes under contention, %d alone", i, r.NodesAfter, want[i])
		}
		if r.AIG == nil || r.Timings == nil || r.Profile == nil {
			t.Errorf("job %d: incomplete result %+v", i, r)
		}
	}
	if m.PeakWorkers > 2 {
		t.Errorf("peak workers %d exceeds the pool budget 2", m.PeakWorkers)
	}
	if m.Finished != njobs || m.Failed != 0 || m.Cancelled != 0 {
		t.Errorf("metrics %+v, want %d finished", m, njobs)
	}
	if m.Workers != 2 {
		t.Errorf("metrics workers = %d, want 2", m.Workers)
	}
	if m.Submitted != njobs || m.Started != njobs {
		t.Errorf("submitted/started = %d/%d, want %d", m.Submitted, m.Started, njobs)
	}
}

func mustPool(t *testing.T, w int) *gpu.Pool {
	t.Helper()
	p := gpu.NewPool(w)
	t.Cleanup(p.Close)
	return p
}

// TestEngineCancellation cancels a job mid-run and checks the contract: the
// job stops promptly, Err wraps context.Canceled, the result is marked
// Cancelled in the metrics, the input network is untouched, Do refuses work
// after Close, and no goroutines are left behind.
func TestEngineCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	a := testAIG(7)
	nodesBefore := a.NumAnds()
	pool := gpu.NewPool(2)
	e := NewEngine(context.Background(), pool, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	// A long job: many repetitions of the full sequence.
	script := strings.Repeat(flow.Resyn2+"; ", 50) + "b"
	done := make(chan Result, 1)
	go func() { done <- e.Do(ctx, Job{AIG: a, Script: script, Config: flow.Config{Parallel: true}}) }()
	time.Sleep(10 * time.Millisecond) // let it start
	cancel()
	start := time.Now()
	res := <-done
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("cancelled job took %v to return", waited)
	}
	if res.Err == nil || !errors.Is(res.Err, context.Canceled) {
		t.Errorf("err = %v, want wrapped context.Canceled", res.Err)
	}
	if !res.Cancelled {
		t.Error("result not marked Cancelled")
	}
	if a.NumAnds() != nodesBefore {
		t.Errorf("input mutated: %d -> %d nodes", nodesBefore, a.NumAnds())
	}
	e.Close()
	pool.Close()

	m := e.Metrics()
	if m.Cancelled != 1 {
		t.Errorf("metrics cancelled = %d, want 1", m.Cancelled)
	}
	if r := e.Do(context.Background(), Job{AIG: a, Script: "b"}); !errors.Is(r.Err, ErrClosed) {
		t.Errorf("Do after close = %v, want ErrClosed", r.Err)
	}
	if rs := e.Batch(context.Background(), []Job{{AIG: a, Script: "b"}}); !errors.Is(rs[0].Err, ErrClosed) {
		t.Errorf("Batch after close = %v, want ErrClosed", rs[0].Err)
	}

	// Goroutine-leak check: everything the engine and pool started must be
	// gone. Allow slack for runtime background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
}

// TestEngineWideCancellation checks that cancelling the engine context
// cancels the jobs of a batch that are still waiting too.
func TestEngineWideCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pool := gpu.NewPool(1)
	defer pool.Close()
	e := NewEngine(ctx, pool, Options{MaxConcurrentJobs: 1})
	script := strings.Repeat(flow.Resyn2+"; ", 50) + "b"
	jobs := make([]Job, 4)
	for i := range jobs {
		jobs[i] = Job{AIG: testAIG(9), Script: script, Config: flow.Config{Parallel: true}}
	}
	time.AfterFunc(10*time.Millisecond, cancel)
	cancelled := 0
	for _, r := range e.Batch(context.Background(), jobs) {
		if r.Cancelled {
			cancelled++
		}
	}
	e.Close()
	if cancelled != 4 {
		t.Errorf("cancelled %d of 4 jobs", cancelled)
	}
}

// TestBatchStartsInPriorityOrder checks the batch loop's order on one
// goroutine: priority descending, slice order within a priority — the first
// job of the slice has the lowest priority, so it must not start first — with
// the whole slice admitted before anything starts.
func TestBatchStartsInPriorityOrder(t *testing.T) {
	pool := gpu.NewPool(1)
	defer pool.Close()
	var started []string // one goroutine runs the jobs: no lock needed
	job := func(name string, prio int) Job {
		j := customJob(name, func(context.Context, *gpu.Pool) (flow.Result, error) {
			started = append(started, name)
			return flow.Result{}, nil
		})
		j.Priority = prio
		return j
	}
	jobs := []Job{job("low-1", 0), job("high", 5), job("low-2", 0), job("mid", 3), job("high-2", 5), job("neg", -1)}
	res, m := RunJobs(context.Background(), pool, jobs, 1)
	want := []string{"high", "high-2", "mid", "low-1", "low-2", "neg"}
	if !slices.Equal(started, want) {
		t.Errorf("start order %v, want %v", started, want)
	}
	for i, r := range res {
		if r.Name != jobs[i].Name || r.Err != nil {
			t.Errorf("result %d = %s (%v), want %s in slice order", i, r.Name, r.Err, jobs[i].Name)
		}
	}
	if m.PeakQueueDepth != len(jobs) {
		t.Errorf("peak queue depth %d, want %d", m.PeakQueueDepth, len(jobs))
	}
}

// TestLeaseClamp pins the lease bounds: never wider than the pool, never
// less than one worker.
func TestLeaseClamp(t *testing.T) {
	p := gpu.NewPool(4)
	defer p.Close()
	for _, tc := range []struct{ req, want int }{{0, 4}, {-1, 4}, {2, 2}, {99, 4}} {
		if got := p.Lease(tc.req).Workers(); got != tc.want {
			t.Errorf("Lease(%d).Workers() = %d, want %d", tc.req, got, tc.want)
		}
	}
}
