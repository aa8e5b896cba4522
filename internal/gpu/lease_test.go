package gpu

import (
	"context"
	"errors"
	"sync"
	"testing"
)

// TestLeasedDeviceRunsOnPool checks that a leased device runs every
// launch's worker bodies on its pool, capped at the lease size, while keeping
// full Device semantics: thread coverage, stats, and per-kernel profile.
func TestLeasedDeviceRunsOnPool(t *testing.T) {
	pool := NewPool(4)
	defer pool.Close()
	d := pool.Lease(3)
	if d.Workers() != 3 {
		t.Fatalf("workers = %d, want 3", d.Workers())
	}
	if pool.PeakWorkers() != 0 || pool.BusyTime() != 0 {
		t.Fatalf("fresh pool: peak %d busy %v, want 0", pool.PeakWorkers(), pool.BusyTime())
	}
	const n = 1000
	seen := make([]bool, n)
	var mu sync.Mutex
	d.Launch("lease-test", n, func(tid int) int64 {
		mu.Lock()
		seen[tid] = true
		mu.Unlock()
		return 1
	})
	for tid, ok := range seen {
		if !ok {
			t.Fatalf("thread %d never ran", tid)
		}
	}
	if p := pool.PeakWorkers(); p < 1 || p > 3 {
		t.Errorf("pool peak = %d, want the launch on 1..3 pool slots", p)
	}
	if pool.BusyTime() <= 0 {
		t.Error("pool busy time = 0: the launch did not run on the pool")
	}
	if s := TotalProfile(d.Profile()); s.Launches != 1 || s.Work != n {
		t.Errorf("stats = %+v, want 1 launch of %d work", s, int64(n))
	}
	if p := d.Profile(); len(p) != 1 || p[0].Kernel != "lease-test" {
		t.Errorf("profile = %+v", p)
	}
}

// TestBindRefusesLaunchesAfterCancel checks the kernel-launch cancellation
// boundary: once the bound context is done, TryLaunch returns a typed
// *CancelledError wrapping the context error without running any thread,
// and Launch panics with the same value.
func TestBindRefusesLaunchesAfterCancel(t *testing.T) {
	d := New(2)
	ctx, cancel := context.WithCancel(context.Background())
	d.Bind(ctx)

	if err := d.TryLaunch("before", 8, func(int) int64 { return 1 }); err != nil {
		t.Fatalf("launch before cancel failed: %v", err)
	}

	cancel()
	ran := false
	err := d.TryLaunch("after", 8, func(int) int64 { ran = true; return 1 })
	if err == nil {
		t.Fatal("launch after cancel succeeded")
	}
	var ce *CancelledError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *CancelledError", err, err)
	}
	if ce.Kernel != "after" {
		t.Errorf("kernel = %q, want \"after\"", ce.Kernel)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err %v does not unwrap to context.Canceled", err)
	}
	if ran {
		t.Error("kernel body ran despite cancellation")
	}
	if s := TotalProfile(d.Profile()); s.Launches != 1 {
		t.Errorf("refused launch was counted: %+v", s)
	}

	func() {
		defer func() {
			r := recover()
			if _, ok := r.(*CancelledError); !ok {
				t.Errorf("Launch panicked with %T %v, want *CancelledError", r, r)
			}
		}()
		d.Launch("after-panic", 8, func(int) int64 { return 1 })
	}()

	// Rebinding to a live context lifts the refusal.
	d.Bind(context.Background())
	if err := d.TryLaunch("rebound", 8, func(int) int64 { return 1 }); err != nil {
		t.Fatalf("launch after rebind failed: %v", err)
	}
}
