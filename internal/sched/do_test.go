package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aigre/internal/flow"
	"aigre/internal/gpu"
)

// TestDoAfterClose checks the admission rule: Close waits for the work in
// flight, and once the engine is closed Do runs nothing and reports ErrClosed
// in Result.Err.
func TestDoAfterClose(t *testing.T) {
	pool := gpu.NewPool(1)
	defer pool.Close()
	e := NewEngine(context.Background(), pool, Options{})
	a := testAIG(1)
	started := make(chan struct{})
	var finished atomic.Bool
	batch := make(chan []Result, 1)
	go func() {
		batch <- e.Batch(context.Background(), []Job{{Name: "slow", AIG: a, Script: "b",
			Custom: func(context.Context, *gpu.Pool) (flow.Result, error) {
				close(started)
				time.Sleep(20 * time.Millisecond) // a Close that does not wait returns meanwhile
				finished.Store(true)
				return flow.Result{AIG: a}, nil
			}}})
	}()
	<-started
	e.Close()
	if !finished.Load() {
		t.Error("Close returned before the Batch in flight finished")
	}
	if rs := <-batch; rs[0].Err != nil {
		t.Errorf("in-flight Batch job: %v", rs[0].Err)
	}

	ran := false
	res := e.Do(context.Background(), Job{Name: "late", AIG: a, Script: "b",
		Custom: func(context.Context, *gpu.Pool) (flow.Result, error) {
			ran = true
			return flow.Result{AIG: a}, nil
		}})
	if !errors.Is(res.Err, ErrClosed) || ran {
		t.Fatalf("Do after Close: err=%v ran=%v, want ErrClosed and nothing run", res.Err, ran)
	}
	if res.Name != "late" || res.Script != "b" {
		t.Errorf("refused result lost its labels: %+v", res)
	}
	if m := e.Metrics(); m.Submitted != 1 || m.Started != 1 {
		t.Errorf("a refused job was counted: %+v", m)
	}
}

// TestDoCountsLikeRunJobs runs the same jobs once through RunJobs and once
// through Do and compares the fleet metrics: everything but the peak queue
// depth (a Do job starts at once) and the wall clocks must match, modeled
// device time included (the jobs run on the device, at one worker). An engine
// used only through Do starts no goroutines.
func TestDoCountsLikeRunJobs(t *testing.T) {
	a := testAIG(3)
	boom := errors.New("boom")
	jobs := []Job{
		{Name: "ok", AIG: a, Script: flow.RfResyn, Config: flow.Config{Parallel: true}},
		{Name: "ok2", AIG: testAIG(4), Script: "b; rw", Config: flow.Config{Parallel: true}},
		{Name: "bad", AIG: a, Script: "b",
			Custom: func(context.Context, *gpu.Pool) (flow.Result, error) { return flow.Result{}, boom }},
	}
	counts := func(m Metrics) Metrics {
		m.Wall, m.JobWall, m.Utilization = 0, 0, 0
		m.PeakQueueDepth = 0
		return m
	}

	batchPool := gpu.NewPool(1)
	defer batchPool.Close()
	_, viaBatch := RunJobs(context.Background(), batchPool, jobs, 1)

	doPool := gpu.NewPool(1)
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
		t.Errorf("Do jobs left %d admitted but not started", viaDo.PeakQueueDepth)
	}
	if viaDo.Finished != 2 || viaDo.Failed != 1 || viaDo.Submitted != 3 || viaDo.Started != 3 {
		t.Errorf("Do metrics = %+v, want 2 finished, 1 failed, 3 submitted and started", viaDo)
	}
	if viaBatch.PeakQueueDepth != len(jobs) {
		t.Errorf("RunJobs peak queue depth %d, want %d", viaBatch.PeakQueueDepth, len(jobs))
	}
	if got, want := counts(viaDo), counts(viaBatch); got != want {
		t.Errorf("metrics differ:\n via Do      %+v\n via RunJobs %+v", got, want)
	}
}
