package sched

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"aigre/internal/aig"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/partition"
	"aigre/internal/rcache"
)

// Job is one batch-optimization request: run Script over AIG under Config.
// The input AIG is never mutated (pass engines clone before editing).
type Job struct {
	// Name labels the job in results and reports (default: the AIG name).
	Name string
	// AIG is the input network.
	AIG *aig.AIG
	// Script is the flow command script, e.g. flow.Resyn2.
	Script string
	// Priority orders a Batch: higher-priority jobs start first, ties in
	// slice order.
	Priority int
	// Workers caps the job's device lease: how many pool workers one kernel
	// launch of this job may occupy (0 = the whole pool). The cap shapes
	// scheduling fairness, not the budget — the pool bounds total
	// concurrency regardless.
	Workers int
	// Config selects execution mode and engine options. A parallel job runs
	// on a device leased from the engine's pool.
	Config flow.Config
	// Partition, when its Mode is not partition.Off, makes each attempt split
	// AIG with partition.Run and run Script on every partition as on a whole
	// job — on its own lease, capped by Workers, when Config.Parallel — then
	// stitch the results; Result.Partition carries the report.
	Partition partition.Split
	// Custom, when non-nil, replaces the script run of each attempt: it runs
	// under the attempt's context and draws any device capacity from its own
	// leases of the given pool. AIG is still required (it sizes the
	// before-stats), and Script still labels the job. It is the tests'
	// supervision seam and the frozen benchmark's probe; no other caller.
	Custom func(ctx context.Context, pool *gpu.Pool) (flow.Result, error)
	// FaultPlans is a chaos/test facility: the plans are injected into each
	// attempt's leased device, with fire-progress carried across attempts.
	// Ignored for Custom and partitioned jobs, which hold no single lease.
	FaultPlans []gpu.FaultPlan

	// admitted is when Batch admitted the job (zero until Do admits a job of
	// its own); Queued runs from then.
	admitted time.Time
}

// prepare rejects a job with no input and fills in the default name.
func (j *Job) prepare() error {
	if j.AIG == nil {
		return fmt.Errorf("sched: job %q has no input AIG", j.Name)
	}
	if j.Name == "" {
		j.Name = j.AIG.Name
	}
	return nil
}

// Record is the job record: the one struct that is stored, served and
// printed for a job — an aigred session (queue.Session embeds it), a
// cmd/aigre -report row and the -profile-json document (aigre.Result embeds
// it through Result). It is the run record (flow.Record) plus what
// supervision adds, and holds no network, error or timings.
type Record struct {
	Name   string `json:"name"`
	Script string `json:"script"`
	// Record is the run record. Wall is start -> finish host time over every
	// attempt; Modeled and Incidents accumulate over attempts; Profile and
	// CacheStats are the last attempt's.
	flow.Record
	// Cancelled reports that Err traces back to external cancellation (the
	// batch or engine shut down). Deadline expiries set TimedOut instead.
	Cancelled bool `json:"cancelled,omitempty"`
	// TimedOut reports that Err traces back to an expired deadline — the
	// job's own Policy.JobTimeout or the batch-wide one.
	TimedOut bool `json:"timed_out,omitempty"`
	// Quarantined reports that the job was poison: a retryable failure
	// class exhausted its retry budget (or the watchdog caught it stuck),
	// and the supervisor withdrew it rather than let it starve the pool.
	Quarantined bool `json:"quarantined,omitempty"`
	// Attempts is how many supervised attempts ran (1 with no retries);
	// Preemptions how many of them the watchdog preempted as stuck.
	Attempts    int `json:"attempts,omitempty"`
	Preemptions int `json:"preemptions,omitempty"`
	// Queued is admission -> start.
	Queued time.Duration `json:"queued_ns"`

	NodesBefore  int `json:"nodes_before"`
	LevelsBefore int `json:"levels_before"`
	NodesAfter   int `json:"nodes_after"`
	LevelsAfter  int `json:"levels_after"`
}

// Result reports one finished job: its Record plus the in-memory parts of
// the last attempt's flow.Result and the job's error.
type Result struct {
	Record
	// AIG is the optimized network; on a cancelled job the partial result
	// (the network after the last completed command), nil only when the
	// script failed to parse.
	AIG *aig.AIG `json:"-"`
	// Timings is the last attempt's per-command breakdown.
	Timings []flow.CommandTiming `json:"-"`
	// Err is nil on success, the (wrapped) context error when the job was
	// cancelled, or the script error. Contained engine failures do not set
	// Err — they are listed in Incidents.
	Err error `json:"-"`
	// Partition is the last attempt's partition report of a partitioned job
	// (nil otherwise): partitioning mode, seam conflicts found and broken,
	// rollbacks, and one row per partition.
	Partition *partition.Report `json:"partition,omitempty"`
}

// Metrics aggregates an engine's fleet statistics. It is the one fleet-
// metrics struct (the public aigre.BatchMetrics is this type): marshalled as
// is, it is the header of a cmd/aigre -report and the "engine" block of
// aigred's GET /v1/stats.
type Metrics struct {
	Workers int `json:"workers"` // pool size W backing the engine
	// Finished (completed without error), Failed, Cancelled, TimedOut (killed
	// by a deadline, their own or the batch's) and Quarantined (poison jobs
	// withdrawn by the supervisor) partition the jobs by final outcome.
	Finished    int `json:"finished"`
	Failed      int `json:"failed"`
	Cancelled   int `json:"cancelled"`
	TimedOut    int `json:"timed_out,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	// Retries counts extra attempts beyond the first, fleet-wide.
	Retries int `json:"retries,omitempty"`
	// PeakWorkers is the pool's observed concurrency high-water mark (never
	// above Workers: the shared-budget invariant); PeakQueueDepth the most
	// jobs admitted but not yet started (a Batch admits its whole slice; a job
	// handed to Do starts at once).
	PeakWorkers    int `json:"peak_workers"`
	PeakQueueDepth int `json:"peak_queue_depth"`
	// Wall spans the first admission to the last job completion. JobWall
	// sums per-job host time — their ratio is the job-level concurrency.
	// Modeled sums the modeled device time of all jobs.
	Wall    time.Duration `json:"wall_ns"`
	JobWall time.Duration `json:"job_wall_ns"`
	Modeled time.Duration `json:"modeled_ns"`
	// Utilization is the fraction of the worker budget kept busy executing
	// kernel bodies: busy-time / (Wall * Workers). Zero before any job
	// finishes.
	Utilization float64 `json:"utilization"`
	// CacheStats is the fleet-wide resynthesis-cache traffic delta. The
	// engine does not know the cache; the public aigre.Engine fills it when
	// BatchOptions.SharedCache is set (nil otherwise).
	CacheStats *rcache.Stats `json:"cache,omitempty"`

	Submitted int `json:"-"`
	Started   int `json:"-"`
}

// Options configures an Engine.
type Options struct {
	// MaxConcurrentJobs bounds how many jobs of one Batch call run at once
	// (0 = the pool's worker count): the memory held by in-flight jobs. Do
	// calls are their callers' to bound.
	MaxConcurrentJobs int
	// Policy is the supervision policy of every job (zero = one attempt, no
	// deadline, no watchdog).
	Policy Policy
	// OnEvent, when non-nil, receives every supervision event of the
	// engine's jobs, stamped with Seq and Time. Calls are serialized in Seq
	// order and run on the job's own path: a slow sink stalls the fleet.
	OnEvent func(Event)
}

// Engine runs jobs on device capacity leased from the shared pool, each
// through Do: one on the caller's goroutine, or a slice of them by Batch.
type Engine struct {
	pool    *gpu.Pool
	ctx     context.Context // engine-wide cancellation
	policy  Policy
	maxJobs int // goroutines of one Batch call

	evMu    sync.Mutex // serializes emit
	seq     int64      // last emitted Event.Seq
	onEvent func(Event)

	mu      sync.Mutex
	closed  bool
	metrics Metrics
	first   time.Time // first admission
	last    time.Time // latest completion

	running sync.WaitGroup // Batch and Do calls in flight
}

// ErrClosed is what Do and Batch report after Close.
var ErrClosed = errors.New("sched: engine closed")

// NewEngine returns an engine over pool. ctx, when non-nil, cancels every
// job (waiting and running) engine-wide when it is done.
func NewEngine(ctx context.Context, pool *gpu.Pool, opts Options) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &Engine{pool: pool, ctx: ctx, policy: opts.Policy, onEvent: opts.OnEvent,
		maxJobs: opts.MaxConcurrentJobs}
	e.metrics.Workers = pool.Workers()
	if e.maxJobs <= 0 {
		e.maxJobs = pool.Workers()
	}
	return e
}

// admit counts one accepted job and stamps its admission time. Callers hold
// e.mu and have checked e.closed.
func (e *Engine) admit(job *Job) {
	job.admitted = time.Now()
	if e.metrics.Submitted == 0 {
		e.first = job.admitted
	}
	e.metrics.Submitted++
}

// Close refuses new work and waits for the Batch and Do calls in flight.
// Do and Batch then report ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.running.Wait()
}

// Metrics returns a snapshot of the fleet statistics.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.metrics
	if !e.first.IsZero() && e.last.After(e.first) {
		m.Wall = e.last.Sub(e.first)
	}
	m.PeakWorkers = e.pool.PeakWorkers()
	if m.Wall > 0 && m.Workers > 0 {
		m.Utilization = e.pool.BusyTime().Seconds() / (m.Wall.Seconds() * float64(m.Workers))
	}
	return m
}

// Batch runs jobs to completion and returns their results in slice order. It
// admits every job up front, so each one's Queued runs from the call, then
// min(MaxConcurrentJobs, len(jobs)) goroutines take the jobs in (Priority
// descending, slice index ascending) order and run each through Do under ctx
// (nil = none). A job with no input, or every job after Close, comes back
// with the error in Result.Err and is not run.
func (e *Engine) Batch(ctx context.Context, jobs []Job) []Result {
	jobs = slices.Clone(jobs)
	out := make([]Result, len(jobs))
	order := make([]int, 0, len(jobs))
	e.mu.Lock()
	for i := range jobs {
		err := jobs[i].prepare()
		if err == nil && e.closed {
			err = ErrClosed
		}
		if err != nil {
			out[i] = Result{Record: Record{Name: jobs[i].Name, Script: jobs[i].Script}, Err: err}
			continue
		}
		e.admit(&jobs[i])
		order = append(order, i)
	}
	if len(order) == 0 {
		e.mu.Unlock()
		return out
	}
	e.metrics.PeakQueueDepth = max(e.metrics.PeakQueueDepth, e.metrics.Submitted-e.metrics.Started)
	e.running.Add(1)
	e.mu.Unlock()
	defer e.running.Done()

	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(jobs[b].Priority, jobs[a].Priority) })
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(e.maxJobs, len(order)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1)) - 1; k < len(order); k = int(next.Add(1)) - 1 {
				out[order[k]] = e.Do(ctx, jobs[order[k]])
			}
		}()
	}
	wg.Wait()
	return out
}

// Do runs one job to completion on the calling goroutine: the one function
// that executes a job. Batch calls it for each job of its slice; the public
// Engine.Run (and through it Network.Run and the aigred workers) calls it
// directly, outside MaxConcurrentJobs.
//
// The job runs under ctx (nil = none) merged with the engine-wide context,
// under the engine's policy, and counts in Metrics as a batch job does.
// After Close, which waits for calls in flight, nothing runs and the
// result carries ErrClosed.
func (e *Engine) Do(ctx context.Context, job Job) Result {
	err := job.prepare()
	res := Result{Record: Record{Name: job.Name, Script: job.Script}, Err: err}
	if err != nil {
		return res
	}
	if ctx == nil {
		ctx = context.Background()
	}
	e.mu.Lock()
	if job.admitted.IsZero() {
		if e.closed {
			e.mu.Unlock()
			res.Err = ErrClosed
			return res
		}
		e.admit(&job)
	}
	e.metrics.Started++
	e.running.Add(1)
	e.mu.Unlock()
	defer e.running.Done()

	res.NodesBefore = job.AIG.NumAnds()
	res.LevelsBefore = job.AIG.Levels()
	start := time.Now()
	res.Queued = start.Sub(job.admitted)

	outer, cancel := context.WithCancel(ctx)
	defer cancel()
	stop := context.AfterFunc(e.ctx, cancel)
	defer stop()
	// AfterFunc fires asynchronously; if the engine-wide context is already
	// done, cancel synchronously so a waiting job cannot slip through and run
	// to completion before the callback goroutine is scheduled.
	if e.ctx.Err() != nil {
		cancel()
	}

	// Profiler labels: every sample taken inside this job's attempts — and in
	// any goroutine they spawn, worker bodies included — carries the job name,
	// so a CPU profile of a batch run breaks down by job out of the box.
	pprof.Do(outer, pprof.Labels("sched_job", job.Name), func(outer context.Context) {
		e.supervise(outer, &job, &res)
	})
	res.Wall = time.Since(start)
	if res.AIG != nil {
		res.NodesAfter = res.AIG.NumAnds()
		res.LevelsAfter = res.AIG.Levels()
	}

	e.mu.Lock()
	switch {
	case res.Quarantined:
		e.metrics.Quarantined++
	case res.TimedOut:
		e.metrics.TimedOut++
	case res.Cancelled:
		e.metrics.Cancelled++
	case res.Err != nil:
		e.metrics.Failed++
	default:
		e.metrics.Finished++
	}
	if res.Attempts > 1 {
		e.metrics.Retries += res.Attempts - 1
	}
	e.metrics.JobWall += res.Wall
	e.metrics.Modeled += res.Modeled
	e.last = time.Now()
	e.mu.Unlock()
	return res
}

// RunJobs is the one-shot convenience: it runs jobs over a fresh engine on
// pool (engine-wide cancellation from ctx) and returns the results in slice
// order together with the fleet metrics. maxConcurrent bounds simultaneous
// jobs (0 = pool workers). Its only caller is benchmark/probes.go; it stays
// while that module is frozen.
func RunJobs(ctx context.Context, pool *gpu.Pool, jobs []Job, maxConcurrent int) ([]Result, Metrics) {
	e := NewEngine(ctx, pool, Options{MaxConcurrentJobs: maxConcurrent})
	out := e.Batch(ctx, jobs)
	e.Close()
	return out, e.Metrics()
}
