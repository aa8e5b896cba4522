package partition

import (
	"context"
	"errors"
	"runtime/pprof"
	"sync/atomic"
	"testing"
	"time"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/flow"
	"aigre/internal/gpu"
)

// probeCtx instruments the orchestration's liveness points: they are what calls
// Err on the context handed to Run — its own checks and the launches of
// extraction and the stitch (and, through the callback's context, the
// partitions' own runs do too). Every call is counted, the first slowFor
// calls are delayed, and the cancelAt-th call cancels.
type probeCtx struct {
	context.Context
	delay    time.Duration
	slowFor  int64
	cancelAt int64
	cancel   context.CancelFunc
	calls    atomic.Int64
}

func (c *probeCtx) Err() error {
	n := c.calls.Add(1)
	if n == c.cancelAt {
		c.cancel()
	}
	if n <= c.slowFor {
		time.Sleep(c.delay)
	}
	return c.Context.Err()
}

// TestOrchestrationBeatsWatchdog runs a partitioned network under a context
// carrying a heartbeat, with the orchestration far longer than a watchdog's
// timeout — its first forty liveness points are stretched to 30 ms: the
// extraction launch, the checks around the per-partition gates and the first
// levels of the stitch's merge — and checks that the heartbeat never stands
// still that long: the gates launch no kernel, so only the orchestration's
// own beats keep a watchdog quiet there, and every launch beats as it starts.
// Inside the partitions every 256-thread chunk of a launch beats: a kernel
// over a whole partition outlasts the timeout under the race detector, and
// so does a short launch queued in the shared pool behind it. (The merge
// launches once per level, a thousand times here, so only the first few are
// stretched.)
func TestOrchestrationBeatsWatchdog(t *testing.T) {
	const timeout = 150 * time.Millisecond
	a := bench.DeepNarrow(8, 500)
	pool := testPool(t, 2)
	hb := &gpu.Heartbeat{}
	ctx := gpu.WithHeartbeat(context.Background(), hb)
	slow := &probeCtx{Context: ctx, delay: 30 * time.Millisecond, slowFor: 40}

	// The watcher samples what a watchdog polls, every millisecond, and keeps
	// the longest silence it saw.
	start := time.Now()
	done, stopped := make(chan struct{}), make(chan struct{})
	var maxGap time.Duration
	go func() {
		defer close(stopped)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				last := hb.Last()
				if last.IsZero() {
					last = start
				}
				maxGap = max(maxGap, time.Since(last))
			}
		}
	}()
	// The partitions run on the unstretched context, which carries the same
	// heartbeat: the probe's delay would stretch every kernel launch too.
	res, err := Run(slow, a, Options{Split: Split{Mode: Cones, TargetSize: 2000}, Pool: pool},
		func(_ context.Context, part *aig.AIG) (flow.Result, error) {
			return flow.Run(ctx, pool.Lease(0), part, "b; rw", flow.Config{Parallel: true})
		})
	close(done)
	<-stopped
	if err != nil {
		t.Fatal(err)
	}
	if maxGap >= timeout {
		t.Errorf("the heartbeat stood still for %v, a watchdog's timeout is %v", maxGap, timeout)
	}
	if stretched := time.Duration(min(slow.calls.Load(), slow.slowFor)) * slow.delay; stretched < 4*timeout {
		t.Fatalf("only %d liveness points (%v): the orchestration did not outlast the timeout", slow.calls.Load(), stretched)
	}
	if err := flow.EquivGate(a, res.AIG, false, 8, 1); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeRunsLabeledAndBounded checks that every partition is optimized
// once, under the profiler label partition_phase=optimize, with at most the
// pool's width of partitions in flight.
func TestOptimizeRunsLabeledAndBounded(t *testing.T) {
	a := bench.DeepNarrow(8, 200)
	var calls, unlabeled, inflight, peak atomic.Int64
	res, err := Run(context.Background(), a, Options{Split: Split{Mode: Cones, TargetSize: 400}, Pool: testPool(t, 2)},
		func(ctx context.Context, part *aig.AIG) (flow.Result, error) {
			calls.Add(1)
			if v, _ := pprof.Label(ctx, "partition_phase"); v != "optimize" {
				unlabeled.Add(1)
			}
			n := inflight.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(time.Millisecond)
			inflight.Add(-1)
			return flow.Result{AIG: part}, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) < 3 || calls.Load() != int64(len(res.Parts)) {
		t.Fatalf("%d optimize calls for %d partitions", calls.Load(), len(res.Parts))
	}
	if unlabeled.Load() != 0 {
		t.Errorf("%d optimize calls ran without partition_phase=optimize", unlabeled.Load())
	}
	if p := peak.Load(); p < 1 || p > 2 {
		t.Errorf("%d partitions in flight on a 2-worker pool", p)
	}
}

// TestStitchObservesCancellation pins the launch-boundary contract: the
// stitch runs as launches on a device bound to the run's context, and every
// launch checks the context first, so a stitch cancelled from inside its
// k-th check stops at that very launch — the merge launches once per level,
// so a deep network is stopped within one level. A Run cancelled that late
// must hand back the input network with the wrapped context error, as a run
// cancelled while its partitions are optimized does.
func TestStitchObservesCancellation(t *testing.T) {
	a := bench.DeepNarrow(4, 2000) // 4000 levels
	pool := testPool(t, 2)
	parts := buildCones(a, 2000)
	cones := extractAll(pool.Lease(0), a, parts)
	stitchUnder := func(ctx context.Context) error {
		d := pool.Lease(0)
		d.Bind(ctx)
		_, _, err := stitchParallel(d, a, parts, cones)
		return err
	}

	whole := &probeCtx{Context: context.Background()}
	if err := stitchUnder(whole); err != nil {
		t.Fatal(err)
	}
	if n, levels := whole.calls.Load(), a.Levels(); n < int64(levels) {
		t.Fatalf("an uncancelled stitch checked its context %d times, want one per level (%d)", n, levels)
	}
	const k = 1000
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := &probeCtx{Context: inner, cancelAt: k, cancel: cancel}
	var ce *gpu.CancelledError
	if err := stitchUnder(cut); !errors.Is(err, context.Canceled) || !errors.As(err, &ce) {
		t.Fatalf("stitch cancelled at launch %d returned %v", k, err)
	}
	if n := cut.calls.Load(); n != k {
		t.Errorf("stitch ran on to launch %d after being cancelled at %d", n, k)
	}

	opts := Options{Split: Split{Mode: Cones, TargetSize: 2000}, Pool: pool}
	whole = &probeCtx{Context: context.Background()}
	if _, err := runScript(whole, a, "b", opts); err != nil {
		t.Fatal(err)
	}
	inner, cancel = context.WithCancel(context.Background())
	defer cancel()
	late := &probeCtx{Context: inner, cancelAt: whole.calls.Load() - 10, cancel: cancel} // inside the stitch's merge
	res, err := runScript(late, a, "b", opts)
	if !errors.Is(err, context.Canceled) || res.AIG != a {
		t.Fatalf("Run cancelled during the stitch: err=%v, input handed back=%v", err, res.AIG == a)
	}
}
