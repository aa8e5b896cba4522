package gpu

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestTryLaunchRecoversPanic checks that a panicking kernel thread surfaces
// as a typed *LaunchError instead of killing the process, on both the
// single-worker fast path and the goroutine pool.
func TestTryLaunchRecoversPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		d := New(workers)
		err := d.TryLaunch("boom", 1000, func(tid int) int64 {
			if tid == 17 {
				panic("kaboom")
			}
			return 1
		})
		if err == nil {
			t.Fatalf("workers=%d: no error returned", workers)
		}
		var lerr *LaunchError
		if !errors.As(err, &lerr) {
			t.Fatalf("workers=%d: error %T is not *LaunchError", workers, err)
		}
		if lerr.Kernel != "boom" || lerr.Tid != 17 || lerr.Value != "kaboom" {
			t.Errorf("workers=%d: unexpected LaunchError %+v", workers, lerr)
		}
		if len(lerr.Stack) == 0 {
			t.Errorf("workers=%d: LaunchError has no stack", workers)
		}
		if !strings.Contains(lerr.Error(), "boom") {
			t.Errorf("workers=%d: Error() = %q", workers, lerr.Error())
		}
	}
}

// TestLaunchPanicsTyped checks that the infallible Launch re-panics with the
// typed error so a guarded caller can recover it.
func TestLaunchPanicsTyped(t *testing.T) {
	d := New(1)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Launch did not panic")
		}
		if _, ok := r.(*LaunchError); !ok {
			t.Fatalf("panic value %T is not *LaunchError", r)
		}
	}()
	d.Launch("boom", 4, func(tid int) int64 { panic("x") })
}

// TestLaunchCancellation checks that a panic stops the launch early: with a
// large thread count, a panic at tid 0 must leave most threads unexecuted.
func TestLaunchCancellation(t *testing.T) {
	d := New(4)
	const n = 1 << 20
	var executed int64
	err := d.TryLaunch("cancel", n, func(tid int) int64 {
		if tid == 0 {
			panic("stop")
		}
		atomic.AddInt64(&executed, 1)
		return 1
	})
	if err == nil {
		t.Fatal("no error")
	}
	if got := atomic.LoadInt64(&executed); got >= n-1 {
		t.Errorf("cancellation ineffective: %d of %d threads ran", got, n)
	}
}

// TestErrorPanicUnwraps checks that panicking with an error value lets
// errors.Is see through the LaunchError.
func TestErrorPanicUnwraps(t *testing.T) {
	sentinel := errors.New("sentinel")
	d := New(1)
	err := d.TryLaunch("wrap", 1, func(tid int) int64 { panic(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Errorf("errors.Is failed to unwrap: %v", err)
	}
}

// TestFaultPlanPanic checks deterministic panic injection at the Nth
// matching launch, firing exactly once.
func TestFaultPlanPanic(t *testing.T) {
	d := New(2)
	d.InjectFaults(FaultPlan{Kernel: "target", Nth: 2, Kind: FaultPanic})
	ok := func(name string) error {
		return d.TryLaunch(name, 64, func(tid int) int64 { return 1 })
	}
	if err := ok("other/kernel"); err != nil {
		t.Fatalf("non-matching launch failed: %v", err)
	}
	if err := ok("target/a"); err != nil {
		t.Fatalf("first matching launch failed: %v", err)
	}
	err := ok("target/b")
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("second matching launch: want injected fault, got %v", err)
	}
	if err := ok("target/c"); err != nil {
		t.Fatalf("plan fired more than once: %v", err)
	}
	if d.FaultsArmed() != 0 {
		t.Errorf("FaultsArmed = %d after firing", d.FaultsArmed())
	}
}

// TestFaultPlanCorrupt checks that corruption skips exactly the last thread
// of the target launch and the launch still succeeds.
func TestFaultPlanCorrupt(t *testing.T) {
	d := New(2)
	d.InjectFaults(FaultPlan{Kernel: "fill", Kind: FaultCorrupt})
	const n = 1000
	out := make([]int32, n)
	if err := d.TryLaunch("fill", n, func(tid int) int64 { out[tid] = 1; return 1 }); err != nil {
		t.Fatalf("corrupted launch errored: %v", err)
	}
	for i := 0; i < n-1; i++ {
		if out[i] != 1 {
			t.Fatalf("thread %d skipped unexpectedly", i)
		}
	}
	if out[n-1] != 0 {
		t.Errorf("last thread's write survived; corruption not injected")
	}
	// Second matching launch runs clean.
	if err := d.TryLaunch("fill", n, func(tid int) int64 { out[tid] = 2; return 1 }); err != nil {
		t.Fatal(err)
	}
	if out[n-1] != 2 {
		t.Errorf("second launch corrupted too")
	}
}

// TestFaultClear checks that InjectFaults with no arguments clears plans.
func TestFaultClear(t *testing.T) {
	d := New(1)
	d.InjectFaults(FaultPlan{Kernel: "x", Kind: FaultPanic})
	d.InjectFaults()
	if err := d.TryLaunch("x", 8, func(tid int) int64 { return 1 }); err != nil {
		t.Fatalf("cleared plan still fired: %v", err)
	}
}

// TestAbortedLaunchStillAccounted checks that a failed launch contributes a
// launch count (and any partial work) to the profile, so incident forensics
// line up with the profiler.
func TestAbortedLaunchStillAccounted(t *testing.T) {
	d := New(1)
	_ = d.TryLaunch("boom", 8, func(tid int) int64 {
		if tid == 4 {
			panic("x")
		}
		return 1
	})
	s := TotalProfile(d.Profile())
	if s.Launches != 1 {
		t.Errorf("aborted launch accounted %d launches, want 1", s.Launches)
	}
	if s.Work < 4 {
		t.Errorf("partial work not accounted: %+v", s)
	}
}

// TestFaultPlanPanicValue checks that a plan's Panic value replaces
// ErrInjectedFault as the recovered panic, so chaos tests can simulate typed
// kernel failures.
func TestFaultPlanPanicValue(t *testing.T) {
	sentinel := errors.New("typed device fault")
	d := New(2)
	d.InjectFaults(FaultPlan{Kernel: "insert", Kind: FaultPanic, Panic: sentinel})
	err := d.TryLaunch("insert", 64, func(tid int) int64 { return 1 })
	if !errors.Is(err, sentinel) {
		t.Fatalf("injected panic value not surfaced: %v", err)
	}
	if errors.Is(err, ErrInjectedFault) {
		t.Errorf("custom panic value still wrapped ErrInjectedFault")
	}
}

// TestFaultPlanStall checks that a stall plan delays the launch without
// failing it, and that the delay gap is visible through the heartbeat.
func TestFaultPlanStall(t *testing.T) {
	d := New(2)
	hb := &Heartbeat{}
	d.Bind(WithHeartbeat(context.Background(), hb))
	d.InjectFaults(FaultPlan{Kernel: "slow", Kind: FaultStall, Stall: 30 * time.Millisecond})
	if err := d.TryLaunch("warm", 8, func(tid int) int64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	last := hb.Last()
	start := time.Now()
	if err := d.TryLaunch("slow", 8, func(tid int) int64 { return 1 }); err != nil {
		t.Fatalf("stalled launch errored: %v", err)
	}
	if got := time.Since(start); got < 30*time.Millisecond {
		t.Errorf("stall not applied: launch took %v", got)
	}
	if !hb.Last().After(last) {
		t.Errorf("heartbeat did not advance across the stalled launch")
	}
}

// TestFaultsSnapshotCarriesProgress checks that Faults() preserves internal
// fire-progress, so re-injecting the snapshot into a fresh device continues
// the Nth-launch countdown instead of restarting it.
func TestFaultsSnapshotCarriesProgress(t *testing.T) {
	d := New(1)
	d.InjectFaults(FaultPlan{Kernel: "k", Nth: 3, Kind: FaultPanic})
	kernel := func(tid int) int64 { return 1 }
	if err := d.TryLaunch("k", 4, kernel); err != nil {
		t.Fatal(err)
	}
	if err := d.TryLaunch("k", 4, kernel); err != nil {
		t.Fatal(err)
	}
	// Two of three matching launches seen; carry the plan to a new device.
	d2 := New(1)
	d2.InjectFaults(d.Faults()...)
	if err := d2.TryLaunch("k", 4, kernel); err == nil {
		t.Fatalf("carried plan did not fire on the 3rd cumulative launch")
	}
	if d2.FaultsArmed() != 0 {
		t.Errorf("FaultsArmed = %d after firing", d2.FaultsArmed())
	}
}

// TestHeartbeatBeats checks that a launch beats and the zero-value Last.
func TestHeartbeatBeats(t *testing.T) {
	hb := &Heartbeat{}
	if !hb.Last().IsZero() {
		t.Errorf("fresh heartbeat has non-zero Last")
	}
	d := New(2)
	d.Bind(WithHeartbeat(context.Background(), hb))
	if err := d.TryLaunch("k", 16, func(tid int) int64 { return 1 }); err != nil {
		t.Fatal(err)
	}
	if hb.Last().IsZero() {
		t.Errorf("Last still zero after beating")
	}
}

// TestParseFaultPlan covers the fault-spec syntax shared by cmd/aigre's
// -inject flag and aigred's submission field.
func TestParseFaultPlan(t *testing.T) {
	for _, c := range []struct {
		spec string
		want FaultPlan
		bad  bool
	}{
		{spec: "refactor/resynth:1:panic", want: FaultPlan{Kernel: "refactor/resynth", Nth: 1, Kind: FaultPanic}},
		{spec: "rewrite:3:corrupt", want: FaultPlan{Kernel: "rewrite", Nth: 3, Kind: FaultCorrupt}},
		{spec: ":2:stall", want: FaultPlan{Nth: 2, Kind: FaultStall}},
		{spec: "rewrite:0:panic", bad: true},   // ordinal below 1
		{spec: "rewrite:one:panic", bad: true}, // ordinal not a number
		{spec: "rewrite:1:melt", bad: true},    // unknown kind
		{spec: "rewrite:bad", bad: true},       // two fields
		{spec: "a:1:panic:x", bad: true},       // four fields
	} {
		got, err := ParseFaultPlan(c.spec)
		if c.bad != (err != nil) || got != c.want {
			t.Errorf("ParseFaultPlan(%q) = %+v, %v; want %+v, bad=%v", c.spec, got, err, c.want, c.bad)
		}
	}
}
