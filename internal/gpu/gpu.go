// Package gpu simulates the execution model of a massively parallel
// processor (a CUDA-style GPU) on the host CPU. It is the substitute for the
// CUDA runtime used by the paper (see DESIGN.md): algorithms are expressed
// as data-parallel kernels with barrier semantics between launches — exactly
// the structure of the paper's GPU refactoring and balancing — and run on a
// bounded host worker pool (Pool); every Device is a lease of one.
//
// Because the reproduction host may have few cores (the benchmark recorder
// has two), the device additionally records the work and span of every
// kernel launch and derives a modeled device time from a calibrated cost
// model. The modeled time is what the experiment harness reports as "GPU"
// time; wall-clock time is always reported alongside it. See EXPERIMENTS.md
// for the calibration discussion.
package gpu

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CostModel describes the modeled device. Modeled kernel time follows
// Brent's bound:
//
//	LaunchOverhead + (work/Processors + span) * OpTime
//
// where work is the total operation count of the launch and span the
// maximum per-thread count, plus a fixed launch/synchronization overhead.
// This reproduces the two first-order effects in the paper's runtime data:
// launch overhead dominating small AIGs (the Fig. 7 crossover) and
// level-wise algorithms slowing down on deep AIGs (many launches, Fig. 8).
type CostModel struct {
	Processors     int           // concurrent hardware threads (RTX 3090 ~ 10496 CUDA cores)
	OpTime         time.Duration // modeled time per elementary operation per thread
	LaunchOverhead time.Duration // fixed cost per kernel launch
}

// DefaultModel is loosely calibrated to the paper's hardware: an RTX 3090
// with ~10k CUDA cores, a few-microsecond kernel launch overhead, and a
// per-operation cost matching a ~1.4 GHz SM clock with memory-bound access
// patterns (~10 ns per irregular global-memory operation).
var DefaultModel = CostModel{
	Processors:     10496,
	OpTime:         10 * time.Nanosecond,
	LaunchOverhead: 30 * time.Microsecond,
}

// SequentialReference is the modeled per-operation time of the sequential
// baseline on a CPU (~3 GHz, cache-friendly pointer chasing ≈ a few ns/op).
// Experiments use it to convert measured sequential wall-clock into the
// modeled regime when comparing against modeled device time.
const SequentialReference = 4 * time.Nanosecond

// Device executes kernels. It is safe for use by a single orchestration
// goroutine (kernel launches themselves are internally parallel; two
// concurrent Launch calls on one Device are not supported, matching a CUDA
// stream).
type Device struct {
	Model   CostModel
	workers int             // worker bodies per launch, at most the pool's size
	pool    *Pool           // the worker budget every launch draws from
	ctx     context.Context // nil = never cancelled; checked at launch boundaries
	hb      *Heartbeat      // the bound context's heartbeat; nil = none
	profile map[string]*KernelProfile
	faults  []FaultPlan
}

// Heartbeat is a liveness signal a watchdog on another goroutine polls with
// Last(): a job whose heartbeat goes quiet is stuck and can be preempted. A
// device bound to a context carrying it (WithHeartbeat, Bind) beats it at
// every kernel-launch boundary and after every launchChunk threads inside a
// launch; host phases that launch no kernel call Beat. Safe for concurrent
// use; a beat is one atomic store, cheap enough for every launch.
type Heartbeat struct {
	last atomic.Int64 // unix nanoseconds of the latest beat
}

// Beat records a liveness tick now.
func (h *Heartbeat) Beat() { h.last.Store(time.Now().UnixNano()) }

// Last returns the wall-clock time of the latest tick (the zero time before
// the first beat).
func (h *Heartbeat) Last() time.Time {
	ns := h.last.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

type heartbeatKey struct{}

// WithHeartbeat returns a context carrying hb: every device bound to it or to
// a context derived from it beats hb, and so does Beat.
func WithHeartbeat(ctx context.Context, hb *Heartbeat) context.Context {
	return context.WithValue(ctx, heartbeatKey{}, hb)
}

// Beat beats the heartbeat ctx carries, if any.
func Beat(ctx context.Context) {
	if hb, _ := ctx.Value(heartbeatKey{}).(*Heartbeat); hb != nil {
		hb.Beat()
	}
}

// New creates a device on a private pool of the given number of workers
// (0 means GOMAXPROCS) using the default cost model: NewPool(workers).Lease(0).
// It is for tests and tools; a job's device is a lease of its engine's pool.
func New(workers int) *Device {
	return NewPool(workers).Lease(0)
}

// Bind attaches a context to the device. Every subsequent Launch/TryLaunch
// checks it first and refuses to start when the context is done, returning
// (or panicking with, for the infallible wrappers) a *CancelledError that
// wraps ctx.Err(); and every launch beats the heartbeat the context carries
// (WithHeartbeat), if any. A nil ctx removes the binding. Bind must be called
// from the orchestration goroutine, like Launch.
func (d *Device) Bind(ctx context.Context) {
	d.ctx, d.hb = ctx, nil
	if ctx != nil {
		d.hb, _ = ctx.Value(heartbeatKey{}).(*Heartbeat)
	}
}

// CancelledError reports a kernel launch refused because the context bound
// to the device (Device.Bind) was cancelled. Unwrap exposes the context
// error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) work as expected.
type CancelledError struct {
	Kernel string // kernel name passed to Launch
	Err    error  // the context error
}

func (e *CancelledError) Error() string {
	return fmt.Sprintf("gpu: kernel %q: launch cancelled: %v", e.Kernel, e.Err)
}

func (e *CancelledError) Unwrap() error { return e.Err }

// Workers returns the lease size: the most worker bodies one launch runs.
func (d *Device) Workers() int { return d.workers }

// AddOverhead accounts an explicit host-side sequential phase into the
// modeled time (e.g. the sequential replacement step of rewriting),
// attributed to name in the per-kernel profile (Launches stays 0: this is
// not a kernel).
func (d *Device) AddOverhead(name string, ops int64) {
	dur := time.Duration(ops) * SequentialReference
	d.account(name, 0, 0, ops, ops, dur, dur, 0)
}

// LaunchSlots runs n logical threads of kernel and blocks until all complete
// (a kernel launch followed by a device barrier). It is the device's one
// launch primitive; Launch, Launch1 and TryLaunch are adapters over it.
//
// The kernel receives its worker slot and the thread id in [0,n), and returns
// the thread's elementary operation count, which feeds the cost model; return
// 1 when per-thread accounting is not meaningful. The slot is in [0, bodies)
// where bodies <= Workers() is the number of worker bodies this launch runs.
// One goroutine runs all threads of a slot, one after another and in tid
// order (a one-body launch runs every thread in slot 0, tid 0 first), so a
// kernel may keep per-slot working memory in a slice indexed by slot without
// locking — the thread-local memory of a GPU kernel, sized once per launch
// instead of borrowed per thread.
//
// Threads must not communicate except through the data-race-free structures
// provided by this repository (disjoint output slots, the concurrent hash
// table, atomic counters) — run the test suite with -race to validate.
//
// A panicking kernel thread does not kill the process outright: the panic is
// recovered on its worker goroutine (one recover per chunk of launchChunk
// threads, not per thread), the rest of the launch is cancelled,
// and LaunchSlots re-panics with a typed *LaunchError on the orchestration
// goroutine so a guarded caller (see package flow) can contain the failure.
// Use TryLaunch to receive the error as a return value instead.
func (d *Device) LaunchSlots(name string, n int, kernel func(slot, tid int) int64) {
	if err := d.launch(name, n, kernel); err != nil {
		panic(err)
	}
}

// Launch is LaunchSlots for a kernel that does not need its worker slot.
func (d *Device) Launch(name string, n int, kernel func(tid int) int64) {
	d.LaunchSlots(name, n, func(_, tid int) int64 { return kernel(tid) })
}

// Launch1 is Launch with unit per-thread cost.
func (d *Device) Launch1(name string, n int, kernel func(tid int)) {
	d.LaunchSlots(name, n, func(_, tid int) int64 {
		kernel(tid)
		return 1
	})
}

// TryLaunch is Launch returning a *LaunchError (as error) instead of
// panicking when a kernel thread panics, or a *CancelledError when the bound
// context is done. Partial work executed before the abort is still accounted
// to the profile.
func (d *Device) TryLaunch(name string, n int, kernel func(tid int) int64) error {
	return d.launch(name, n, func(_, tid int) int64 { return kernel(tid) })
}

// launch is the launch primitive behind every exported form.
func (d *Device) launch(name string, n int, kernel func(slot, tid int) int64) error {
	if n < 0 {
		panic("gpu: negative thread count")
	}
	if d.ctx != nil {
		if err := d.ctx.Err(); err != nil {
			return &CancelledError{Kernel: name, Err: err}
		}
	}
	d.beat() // launch boundary reached: the job is alive
	kernel = d.applyFault(name, n, kernel)
	start := time.Now()
	var work, maxOps int64
	var lerr *LaunchError
	if n > 0 {
		work, maxOps, lerr = d.launchParallel(name, n, kernel)
	}
	modeled := d.Model.LaunchOverhead +
		time.Duration(work/int64(d.Model.Processors)+maxOps)*d.Model.OpTime
	d.account(name, 1, int64(n), work, maxOps, modeled, 0, time.Since(start))
	if lerr != nil {
		return lerr
	}
	return nil
}

// launchChunk is the number of consecutive threads a launch hands a worker at
// a time; the device beats its heartbeat as each chunk completes, so a long
// kernel that is making progress — or one whose pool is busy with a sibling
// job's kernel under the same heartbeat — never looks stuck.
const launchChunk = 256

// beat bumps the heartbeat, if any.
func (d *Device) beat() {
	if d.hb != nil {
		d.hb.Beat()
	}
}

// parallelLaunch is the state the worker bodies of one launch share.
type parallelLaunch struct {
	d      *Device
	name   string
	n      int64
	kernel func(slot, tid int) int64
	next   atomic.Int64 // next unclaimed thread id
	work   atomic.Int64
	maxOps atomic.Int64
	stop   atomic.Bool // set when a thread panics; cancels remaining threads
	mu     sync.Mutex  // guards lerr (failure path only)
	lerr   *LaunchError
}

// launchParallel runs the worker bodies of one launch on the device's pool,
// at most one per chunk of threads: the one way a kernel reaches the host.
func (d *Device) launchParallel(name string, n int, kernel func(slot, tid int) int64) (work, maxOps int64, lerr *LaunchError) {
	workers := d.workers
	if w := (n + launchChunk - 1) / launchChunk; w < workers {
		workers = w
	}
	l := &parallelLaunch{d: d, name: name, n: int64(n), kernel: kernel}
	tasks := make([]func(), workers)
	for i := range tasks {
		tasks[i] = func() { l.body(i) }
	}
	d.pool.Execute(tasks)
	return l.work.Load(), l.maxOps.Load(), l.lerr
}

// body is the worker body of slot: it claims chunks of consecutive threads
// until none is left or a thread has panicked.
func (l *parallelLaunch) body(slot int) {
	var localWork, localMax int64
	for !l.stop.Load() {
		base := l.next.Add(launchChunk) - launchChunk
		if base >= l.n {
			break
		}
		work, maxOps, err := l.runChunk(slot, base, min(base+launchChunk, l.n))
		localWork += work
		localMax = max(localMax, maxOps)
		if err != nil {
			l.stop.Store(true)
			l.mu.Lock()
			if l.lerr == nil {
				l.lerr = err
			}
			l.mu.Unlock()
			break
		}
		if l.stop.Load() {
			break
		}
		l.d.beat()
	}
	l.work.Add(localWork)
	for {
		cur := l.maxOps.Load()
		if localMax <= cur || l.maxOps.CompareAndSwap(cur, localMax) {
			break
		}
	}
}

// runChunk runs threads [base, end) in slot and returns their operation
// total and maximum. One recover covers the chunk: a panicking thread ends
// it, and comes back as a *LaunchError with its tid and stack, the threads
// before it still counted.
func (l *parallelLaunch) runChunk(slot int, base, end int64) (work, maxOps int64, lerr *LaunchError) {
	tid := base
	defer func() {
		if r := recover(); r != nil {
			lerr = &LaunchError{Kernel: l.name, Tid: int(tid), Value: r, Stack: debug.Stack()}
		}
	}()
	for ; tid < end; tid++ {
		ops := l.kernel(slot, int(tid))
		work += ops
		maxOps = max(maxOps, ops)
	}
	return work, maxOps, nil
}

// ---------------------------------------------------------------------------
// Device primitives: scan, compact, sort. These are the standard GPU
// building blocks the paper's algorithms rely on (gathering per-thread cut
// lists into a new frontier array is a scan+scatter).
// ---------------------------------------------------------------------------

// ExclusiveScan computes the exclusive prefix sum of counts into a new slice
// and returns it together with the total. Modeled as a work-efficient device
// scan: its cost is accounted as ~2 ops per element over log-depth passes,
// attributed to name in the per-kernel profile.
func (d *Device) ExclusiveScan(name string, counts []int32) ([]int32, int32) {
	n := len(counts)
	out := make([]int32, n)
	if n == 0 {
		return out, 0
	}
	// Host execution is a simple linear pass (fastest on CPU); the modeled
	// cost reflects a Blelloch scan on the device.
	var sum int32
	for i, c := range counts {
		out[i] = sum
		sum += c
	}
	d.accountScan(name, n)
	return out, sum
}

// accountScan charges a log-depth device scan/reduction over n elements to
// name.
func (d *Device) accountScan(name string, n int) {
	passes := 2 * ceilLog2(n)
	if passes == 0 {
		passes = 1
	}
	waves := int64((n + d.Model.Processors - 1) / d.Model.Processors)
	if waves == 0 {
		waves = 1
	}
	modeled := time.Duration(passes)*d.Model.LaunchOverhead +
		time.Duration(waves*int64(passes))*d.Model.OpTime
	d.account(name, passes, int64(n), int64(2*n), int64(passes), modeled, 0, 0)
}

// Compact gathers the elements of src whose keep flag is set into a new
// densely packed slice, preserving order (stream compaction). Its three
// internal launches are attributed to name + "/flags", "/scan", "/scatter".
func Compact[T any](d *Device, name string, src []T, keep []bool) []T {
	counts := make([]int32, len(src))
	d.Launch1(name+"/flags", len(src), func(tid int) {
		if keep[tid] {
			counts[tid] = 1
		}
	})
	offsets, total := d.ExclusiveScan(name+"/scan", counts)
	out := make([]T, total)
	d.Launch1(name+"/scatter", len(src), func(tid int) {
		if keep[tid] {
			out[offsets[tid]] = src[tid]
		}
	})
	return out
}

// Waves runs a level-synchronous pass over the indices of level: step is
// called once per non-empty level from 1 up to the highest, in order, with
// the indices i whose level[i] is that level, ascending. Level 0 (inputs,
// constants, absent entries) gets no step. The steps launch the pass's
// kernels; the bucketing is a host counting sort and costs no modeled time.
func (d *Device) Waves(level []int32, step func(wave []int32)) {
	top := int32(0)
	for _, l := range level {
		top = max(top, l)
	}
	start := make([]int32, top+2)
	for _, l := range level {
		start[l+1]++
	}
	for lv := range top + 1 {
		start[lv+1] += start[lv]
	}
	order := make([]int32, len(level))
	fill := append([]int32(nil), start[:top+1]...)
	for i, l := range level {
		order[fill[l]] = int32(i)
		fill[l]++
	}
	for lv := int32(1); lv <= top; lv++ {
		if wave := order[start[lv]:start[lv+1]]; len(wave) > 0 {
			step(wave)
		}
	}
}

// SortUniqueInt32 returns a freshly allocated sorted slice of the distinct
// values of ids, leaving ids untouched. Modeled as a device radix sort +
// unique compaction, attributed to name. Used for frontier de-duplication.
func (d *Device) SortUniqueInt32(name string, ids []int32) []int32 {
	sorted := append([]int32(nil), ids...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:0]
	var last int32 = -1
	for _, id := range sorted {
		if id != last {
			out = append(out, id)
			last = id
		}
	}
	// Radix sort: ~4 passes over the data plus a unique pass.
	n := len(ids)
	waves := int64((n + d.Model.Processors - 1) / d.Model.Processors)
	if waves == 0 {
		waves = 1
	}
	modeled := 5*d.Model.LaunchOverhead + time.Duration(5*waves)*d.Model.OpTime
	d.account(name, 5, int64(5*n), int64(5*n), 5, modeled, 0, 0)
	return out
}

func ceilLog2(x int) int {
	n := 0
	for v := 1; v < x; v <<= 1 {
		n++
	}
	return n
}
