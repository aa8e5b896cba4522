package gpu_test

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aigre/internal/gpu"
	"aigre/internal/sched"
)

// slotDevices returns a private and a sched.Pool-leased device with w
// workers, by name, and a cleanup closing the pool.
func slotDevices(w int) (map[string]*gpu.Device, func()) {
	pool := sched.NewPool(w)
	return map[string]*gpu.Device{
		"private": gpu.New(w),
		"leased":  pool.Lease(w),
	}, pool.Close
}

// TestLaunchSlotsContract checks the worker-slot contract kernels rely on to
// keep per-slot memory without locks: every slot is below Workers(), no two
// threads of one slot ever run at the same time, every thread runs exactly
// once, and the single-worker fast path runs everything in slot 0.
func TestLaunchSlotsContract(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		devs, closePool := slotDevices(w)
		for name, d := range devs {
			t.Run(fmt.Sprintf("%s/W=%d", name, w), func(t *testing.T) {
				const n = 5000
				inflight := make([]atomic.Int32, d.Workers())
				var badSlot, overlap atomic.Int32
				ran := make([]int32, n)
				d.LaunchSlots("slots", n, func(slot, tid int) int64 {
					if slot < 0 || slot >= d.Workers() {
						badSlot.Add(1)
						return 1
					}
					if inflight[slot].Add(1) > 1 {
						overlap.Add(1)
					}
					if tid%97 == 0 {
						runtime.Gosched() // invite a second goroutine into the slot
					}
					atomic.AddInt32(&ran[tid], 1)
					if w == 1 && slot != 0 {
						badSlot.Add(1)
					}
					inflight[slot].Add(-1)
					return 1
				})
				if badSlot.Load() != 0 {
					t.Fatalf("%d threads saw a slot outside [0, %d)", badSlot.Load(), d.Workers())
				}
				if overlap.Load() != 0 {
					t.Fatalf("%d threads shared a slot with a running thread", overlap.Load())
				}
				for tid, c := range ran {
					if c != 1 {
						t.Fatalf("thread %d ran %d times", tid, c)
					}
				}
			})
		}
		closePool()
	}
}

// TestLaunchSlotsFaults checks that fault plans fire through the slot
// launch exactly as through Launch: a panic surfaces as a *LaunchError
// wrapping ErrInjectedFault, a stall delays the launch, and a corruption
// drops the last thread.
func TestLaunchSlotsFaults(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		devs, closePool := slotDevices(w)
		for name, d := range devs {
			t.Run(fmt.Sprintf("%s/W=%d", name, w), func(t *testing.T) {
				const n = 600
				kernel := func(ran []int32) func(slot, tid int) int64 {
					return func(slot, tid int) int64 {
						atomic.AddInt32(&ran[tid], 1)
						return 1
					}
				}

				d.InjectFaults(gpu.FaultPlan{Kernel: "k", Kind: gpu.FaultPanic})
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							err, _ = r.(error)
						}
					}()
					d.LaunchSlots("k", n, kernel(make([]int32, n)))
					return nil
				}()
				var lerr *gpu.LaunchError
				if !errors.As(err, &lerr) || !errors.Is(err, gpu.ErrInjectedFault) || lerr.Tid != 0 {
					t.Fatalf("panic plan: got %v, want a *LaunchError at thread 0 wrapping ErrInjectedFault", err)
				}

				const stall = 20 * time.Millisecond
				d.InjectFaults(gpu.FaultPlan{Kernel: "k", Kind: gpu.FaultStall, Stall: stall})
				start := time.Now()
				d.LaunchSlots("k", n, kernel(make([]int32, n)))
				if got := time.Since(start); got < stall {
					t.Fatalf("stall plan: launch took %v, want >= %v", got, stall)
				}

				d.InjectFaults(gpu.FaultPlan{Kernel: "k", Kind: gpu.FaultCorrupt})
				ran := make([]int32, n)
				d.LaunchSlots("k", n, kernel(ran))
				for tid, c := range ran {
					want := int32(1)
					if tid == n-1 {
						want = 0
					}
					if c != want {
						t.Fatalf("corrupt plan: thread %d ran %d times, want %d", tid, c, want)
					}
				}
				if d.FaultsArmed() != 0 {
					t.Fatalf("%d plans still armed", d.FaultsArmed())
				}
			})
		}
		closePool()
	}
}
