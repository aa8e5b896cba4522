package partition

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"aigre/internal/bench"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/sched"
)

// probeCtx instruments the orchestration's liveness points: they are what calls
// Err on the context handed to Run (the partition jobs and their kernels see
// contexts derived from it, which answer Err themselves; the nested engine
// asks once per partition job). Every call is counted, optionally delayed, and
// the cancelAt-th call cancels.
type probeCtx struct {
	context.Context
	delay    time.Duration
	cancelAt int64
	cancel   context.CancelFunc
	calls    atomic.Int64
}

func (c *probeCtx) Err() error {
	if n := c.calls.Add(1); n == c.cancelAt {
		c.cancel()
	}
	time.Sleep(c.delay)
	return c.Context.Err()
}

// TestOrchestrationBeatsWatchdog runs a partitioned job under a watchdog whose
// StuckTimeout is far shorter than the job's orchestration — each liveness
// point is stretched to 30 ms, some twenty-five of them follow the last
// partition job — but longer than any gap between two beats. The job must
// finish unpreempted: extraction, the per-partition gates and the stitch
// launch no kernel, so only their own beats keep the watchdog quiet. Inside
// the partition jobs every 256-thread chunk of a launch beats: a kernel over a
// whole partition outlasts the timeout under the race detector, and so does a
// short launch queued in the shared pool behind it.
func TestOrchestrationBeatsWatchdog(t *testing.T) {
	a := bench.DeepNarrow(8, 500)
	pool := testPool(t, 2)
	e := sched.NewEngine(context.Background(), pool, sched.Options{
		Policy: sched.Policy{StuckTimeout: 150 * time.Millisecond}})
	defer e.Close()
	var liveness int64
	res := e.Do(context.Background(), sched.Job{Name: "deep", AIG: a, Script: "b; rw",
		Custom: func(ctx context.Context, pool *gpu.Pool) (flow.Result, error) {
			slow := &probeCtx{Context: ctx, delay: 30 * time.Millisecond}
			pres, err := Run(slow, a, "b; rw", Options{Split: Split{Mode: Cones, TargetSize: 2000}, Pool: pool,
				Flow: flow.Config{Parallel: true}}) // device jobs: every kernel launch beats
			liveness = slow.calls.Load()
			return pres.Result, err
		}})
	if res.Err != nil || res.Preemptions != 0 || res.Quarantined {
		t.Fatalf("watched partitioned job: err=%v preemptions=%d quarantined=%v", res.Err, res.Preemptions, res.Quarantined)
	}
	if stretched := time.Duration(liveness) * 30 * time.Millisecond; stretched < 4*150*time.Millisecond {
		t.Fatalf("only %d liveness points (%v): the orchestration did not outlast the watchdog", liveness, stretched)
	}
	if err := flow.EquivGate(a, res.AIG, false, 8, 1); err != nil {
		t.Fatal(err)
	}
}

// TestStitchObservesCancellation cancels the context from inside the merge
// loop's k-th liveness point: the stitch must return the context error from
// that very point — within one level batch — and a Run cancelled that late
// must hand back the input network with the wrapped context error, as a run
// cancelled during its partition jobs does.
func TestStitchObservesCancellation(t *testing.T) {
	a := bench.DeepNarrow(4, 2000) // 4000 levels: fifteen level batches
	pool := testPool(t, 2)
	parts := buildCones(a, 2000)
	cones := extractAll(context.Background(), a, parts, pool)

	whole := &probeCtx{Context: context.Background()}
	if _, _, err := stitchParallel(whole, a, parts, cones, pool); err != nil {
		t.Fatal(err)
	}
	if n := whole.calls.Load(); n < 10 {
		t.Fatalf("an uncancelled stitch passed %d liveness points, want one per %d levels", n, levelBatch)
	}
	const k = 6
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := &probeCtx{Context: inner, cancelAt: k, cancel: cancel}
	if _, _, err := stitchParallel(cut, a, parts, cones, pool); !errors.Is(err, context.Canceled) {
		t.Fatalf("stitch cancelled at liveness point %d returned %v", k, err)
	}
	if n := cut.calls.Load(); n != k {
		t.Errorf("stitch ran on to liveness point %d after being cancelled at %d", n, k)
	}

	opts := Options{Split: Split{Mode: Cones, TargetSize: 2000}, Pool: pool}
	whole = &probeCtx{Context: context.Background()}
	if _, err := Run(whole, a, "b", opts); err != nil {
		t.Fatal(err)
	}
	inner, cancel = context.WithCancel(context.Background())
	defer cancel()
	late := &probeCtx{Context: inner, cancelAt: whole.calls.Load() - 3, cancel: cancel} // inside the stitch
	res, err := Run(late, a, "b", opts)
	if !errors.Is(err, context.Canceled) || res.AIG != a {
		t.Fatalf("Run cancelled during the stitch: err=%v, input handed back=%v", err, res.AIG == a)
	}
}
