package gpu

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Pool is a fixed budget of W concurrent worker slots shared by every device
// leased from it. Kernel launches draw their worker bodies from it, so the
// total host concurrency across any number of concurrent jobs never exceeds
// the pool size. Every Device is a lease: New(w) is NewPool(w).Lease(0), a
// private pool of one device.
//
// The budget is a slot semaphore rather than a set of resident worker
// goroutines, so a pool that is never closed costs nothing. The first body of
// a launch runs inline on the calling goroutine after claiming a slot,
// costing no channel handoff or context switch — a one-body launch, the whole
// traffic of a one-worker lease, never leaves its caller. The earlier
// resident-worker design paid two scheduler switches per task, which at eight
// concurrent partition jobs on a saturated host turned the pool itself into a
// contention source. Multi-body launches spawn one goroutine per extra body;
// each claims its own slot, so the W bound holds regardless of how many jobs
// launch at once.
type Pool struct {
	size int
	sem  chan int // buffered with slot ids 0..size-1

	closeOnce sync.Once
	running   atomic.Int32 // slots currently executing a task
	peak      atomic.Int32 // high-water mark of running
	busy      []slotClock  // per-slot busy time, indexed by slot id
}

// slotClock is one slot's busy-time accumulator, padded to a cache line so
// concurrent slots don't false-share — BusyTime is read rarely, but the
// accumulators are written once per task by every worker.
type slotClock struct {
	ns atomic.Int64
	_  [56]byte
}

// NewPool creates a pool with the given number of worker slots
// (0 = GOMAXPROCS). Close releases the budget.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		size: workers,
		sem:  make(chan int, workers),
		busy: make([]slotClock, workers),
	}
	for i := 0; i < workers; i++ {
		p.sem <- i
	}
	return p
}

// runOn executes fn while holding slot, maintaining the concurrency
// statistics.
func (p *Pool) runOn(slot int, fn func()) {
	cur := p.running.Add(1)
	for {
		peak := p.peak.Load()
		if cur <= peak || p.peak.CompareAndSwap(peak, cur) {
			break
		}
	}
	start := time.Now()
	fn()
	p.busy[slot].ns.Add(int64(time.Since(start)))
	p.running.Add(-1)
}

// Workers returns the pool size W: the hard bound on concurrently running
// kernel workers.
func (p *Pool) Workers() int { return p.size }

// PeakWorkers returns the high-water mark of concurrently executing worker
// bodies observed so far — by construction never above Workers(). Tests use
// it to assert the shared-budget invariant.
func (p *Pool) PeakWorkers() int { return int(p.peak.Load()) }

// BusyTime returns the summed execution time of all tasks run so far, the
// numerator of worker utilization.
func (p *Pool) BusyTime() time.Duration {
	var total int64
	for i := range p.busy {
		total += p.busy[i].ns.Load()
	}
	return time.Duration(total)
}

// Execute runs every task under the pool's slot budget and returns when all
// have completed: it is the device barrier of every kernel launch, and
// (*Device).launchParallel, which hands it a launch's worker bodies, is its
// one caller outside tests. Tasks may be enqueued from many goroutines
// concurrently; each blocks only until a slot frees up. Tasks of one call
// must not block on each other. The first task runs inline on the caller.
func (p *Pool) Execute(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	var done sync.WaitGroup
	done.Add(len(tasks) - 1)
	for _, fn := range tasks[1:] {
		go func(fn func()) {
			defer done.Done()
			slot := <-p.sem
			p.runOn(slot, fn)
			p.sem <- slot
		}(fn)
	}
	slot := <-p.sem
	p.runOn(slot, tasks[0])
	p.sem <- slot
	done.Wait()
}

// Close retires the worker budget: it claims every slot, which waits for all
// in-flight tasks to finish. No device leased from the pool may launch
// kernels afterwards. Close is idempotent.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		for i := 0; i < p.size; i++ {
			<-p.sem
		}
	})
}

// Lease returns a device drawing its launch workers from the pool, capped
// at max worker bodies per launch (0 or anything above the pool size means
// the whole pool), with the default cost model. The device records its own
// work/span/profile stats, so per-job accounting does not depend on who
// else shares the pool.
//
// The lease stays valid until the pool is closed; leasing is cheap enough
// to do per job.
func (p *Pool) Lease(max int) *Device {
	if max <= 0 || max > p.size {
		max = p.size
	}
	return &Device{Model: DefaultModel, workers: max, pool: p}
}
