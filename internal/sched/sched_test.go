package sched

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"aigre/internal/aig"
	"aigre/internal/flow"
)

func testAIG(seed int64) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	return aig.Random(rng, 10, 600, 6).Rehash()
}

// TestPoolExecuteBudget drives Execute directly and checks the budget
// invariant at its source: however many tasks one call carries, and however
// many calls run at once, no more than W bodies execute concurrently.
func TestPoolExecuteBudget(t *testing.T) {
	p := NewPool(3)
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

	pool := NewPool(2)
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

func mustPool(t *testing.T, w int) *Pool {
	t.Helper()
	p := NewPool(w)
	t.Cleanup(p.Close)
	return p
}

// TestEngineCancellation cancels jobs mid-run and checks the contract: the
// job stops promptly, Err wraps context.Canceled, the result is marked
// Cancelled in the metrics, the input network is untouched, and no
// goroutines are left behind.
func TestEngineCancellation(t *testing.T) {
	before := runtime.NumGoroutine()

	a := testAIG(7)
	nodesBefore := a.NumAnds()
	pool := NewPool(2)
	e := NewEngine(context.Background(), pool, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	// A long job: many repetitions of the full sequence.
	script := strings.Repeat(flow.Resyn2+"; ", 50) + "b"
	tk, err := e.Submit(ctx, Job{AIG: a, Script: script, Config: flow.Config{Parallel: true}})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // let it start
	cancel()
	start := time.Now()
	res := tk.Wait()
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
	if _, err := e.Submit(context.Background(), Job{AIG: a, Script: "b"}); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
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
// cancels queued jobs too.
func TestEngineWideCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pool := NewPool(1)
	defer pool.Close()
	e := NewEngine(ctx, pool, Options{MaxConcurrentJobs: 1})
	script := strings.Repeat(flow.Resyn2+"; ", 50) + "b"
	var tickets []*Ticket
	for i := 0; i < 4; i++ {
		tk, err := e.Submit(context.Background(), Job{AIG: testAIG(9), Script: script, Config: flow.Config{Parallel: true}})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	time.Sleep(10 * time.Millisecond)
	cancel()
	e.Close()
	cancelled := 0
	for _, tk := range tickets {
		if r := tk.Wait(); r.Cancelled {
			cancelled++
		}
	}
	if cancelled != 4 {
		t.Errorf("cancelled %d of 4 jobs", cancelled)
	}
}

// TestEnginePriorityOrder checks admission order on a single runner:
// priority first, submission order within a priority. The queue is built up
// while the runner is still blocked on the first job, and start order is
// read off the heap-pop sequence through per-job wall timestamps.
func TestEnginePriorityOrder(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	e := NewEngine(context.Background(), pool, Options{MaxConcurrentJobs: 1})

	// A blocker occupies the single runner long enough for the four probe
	// jobs to all be queued before any of them can start.
	blocker, err := e.Submit(context.Background(),
		Job{Name: "blocker", AIG: testAIG(1), Script: flow.Resyn2, Config: flow.Config{Parallel: true}})
	if err != nil {
		t.Fatal(err)
	}
	probe := testAIG(2) // built up front: the four submissions must take microseconds
	submit := func(name string, prio int) *Ticket {
		tk, err := e.Submit(context.Background(), Job{Name: name, AIG: probe, Script: "b; rw; b", Priority: prio})
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}
	low1 := submit("low-1", 0)
	high := submit("high", 5)
	low2 := submit("low-2", 0)
	mid := submit("mid", 3)
	e.Close()
	if r := blocker.Wait(); r.Err != nil {
		t.Fatal(r.Err)
	}

	// With one runner the jobs execute strictly one after another, so the
	// queue delay orders them: first started = shortest wait. All four were
	// submitted within microseconds, while each run takes far longer.
	waits := map[string]time.Duration{}
	for _, tk := range []*Ticket{low1, high, low2, mid} {
		r := tk.Wait()
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		waits[r.Name] = r.Queued
	}
	if !(waits["high"] < waits["mid"] && waits["mid"] < waits["low-1"] && waits["low-1"] < waits["low-2"]) {
		t.Errorf("admission order by queue delay: high=%v mid=%v low-1=%v low-2=%v",
			waits["high"], waits["mid"], waits["low-1"], waits["low-2"])
	}
	if m := e.Metrics(); m.PeakQueueDepth < 4 {
		t.Errorf("peak queue depth %d, want >= 4", m.PeakQueueDepth)
	}
}

// TestLeaseClamp pins the lease bounds: never wider than the pool, never
// less than one worker.
func TestLeaseClamp(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, tc := range []struct{ req, want int }{{0, 4}, {-1, 4}, {2, 2}, {99, 4}} {
		if got := p.Lease(tc.req).Workers(); got != tc.want {
			t.Errorf("Lease(%d).Workers() = %d, want %d", tc.req, got, tc.want)
		}
	}
}
