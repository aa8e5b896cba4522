package sched

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"aigre/internal/flow"
)

// TestDoAfterClose checks the blocking entry's admission rule: once the
// engine is closed, Do runs nothing and reports ErrClosed in Result.Err.
func TestDoAfterClose(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	e := NewEngine(context.Background(), pool, Options{})
	e.Close()
	ran := false
	a := testAIG(1)
	res := e.Do(context.Background(), Job{Name: "late", AIG: a, Script: "b",
		Custom: func(context.Context, *Pool) (flow.Result, error) {
			ran = true
			return flow.Result{AIG: a}, nil
		}})
	if !errors.Is(res.Err, ErrClosed) || ran {
		t.Fatalf("Do after Close: err=%v ran=%v, want ErrClosed and nothing run", res.Err, ran)
	}
	if res.Name != "late" || res.Script != "b" {
		t.Errorf("refused result lost its labels: %+v", res)
	}
	if m := e.Metrics(); m.Submitted != 0 || m.Started != 0 {
		t.Errorf("a refused job was counted: %+v", m)
	}
}

// TestShutdownWaitsForDo checks that a Do call in flight is drained like a
// running submitted job: Shutdown reports ok == false past its deadline while
// the call is still running, the call then finishes normally, and a second
// Shutdown — and Close — return once it has.
func TestShutdownWaitsForDo(t *testing.T) {
	pool := NewPool(1)
	defer pool.Close()
	e := NewEngine(context.Background(), pool, Options{})
	a := testAIG(2)
	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan Result, 1)
	go func() {
		done <- e.Do(context.Background(), Job{Name: "slow", AIG: a, Script: "b",
			Custom: func(context.Context, *Pool) (flow.Result, error) {
				close(started)
				<-release
				return flow.Result{AIG: a}, nil
			}})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if dropped, ok := e.Shutdown(ctx); dropped != 0 || ok {
		t.Fatalf("Shutdown with a Do in flight = (%d, %v), want (0, false)", dropped, ok)
	}
	close(release)
	if res := <-done; res.Err != nil {
		t.Fatalf("in-flight Do after Shutdown: %v", res.Err)
	}
	if _, ok := e.Shutdown(context.Background()); !ok {
		t.Fatal("Shutdown of an idle engine not ok")
	}
	e.Close()
	if m := e.Metrics(); m.Finished != 1 {
		t.Fatalf("metrics = %+v, want 1 finished", m)
	}
}

// TestDoCountsLikeSubmit runs the same jobs once through Submit and once
// through Do and compares the fleet metrics: everything but the admission
// queue's depth (a Do job never waits in it) and the wall clocks must match,
// modeled device time included (the jobs run on the device, at one worker).
// An engine used only through Do starts no runner goroutines.
func TestDoCountsLikeSubmit(t *testing.T) {
	a := testAIG(3)
	boom := errors.New("boom")
	jobs := []Job{
		{Name: "ok", AIG: a, Script: flow.RfResyn, Config: flow.Config{Parallel: true}},
		{Name: "ok2", AIG: testAIG(4), Script: "b; rw", Config: flow.Config{Parallel: true}},
		{Name: "bad", AIG: a, Script: "b",
			Custom: func(context.Context, *Pool) (flow.Result, error) { return flow.Result{}, boom }},
	}
	counts := func(m Metrics) Metrics {
		m.Wall, m.JobWall, m.Utilization = 0, 0, 0
		m.PeakQueueDepth = 0
		return m
	}

	subPool := NewPool(1)
	defer subPool.Close()
	_, viaSubmit := RunJobs(context.Background(), subPool, jobs, 1)

	doPool := NewPool(1)
	defer doPool.Close()
	before := runtime.NumGoroutine()
	e := NewEngine(context.Background(), doPool, Options{MaxConcurrentJobs: 1})
	for _, j := range jobs {
		e.Do(context.Background(), j)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("an engine used only through Do left %d goroutines running", after-before)
	}
	e.Close()
	viaDo := e.Metrics()

	if viaDo.PeakQueueDepth != 0 {
		t.Errorf("Do jobs deepened the admission queue to %d", viaDo.PeakQueueDepth)
	}
	if viaDo.Finished != 2 || viaDo.Failed != 1 || viaDo.Submitted != 3 || viaDo.Started != 3 {
		t.Errorf("Do metrics = %+v, want 2 finished, 1 failed, 3 submitted and started", viaDo)
	}
	if got, want := counts(viaDo), counts(viaSubmit); got != want {
		t.Errorf("metrics differ:\n via Do     %+v\n via Submit %+v", got, want)
	}
}
