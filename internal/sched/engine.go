package sched

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"time"

	"aigre/internal/aig"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/journal"
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
	// Priority orders admission: higher-priority jobs start first.
	// Ties run in submission order.
	Priority int
	// Workers caps the job's device lease: how many pool workers one kernel
	// launch of this job may occupy (0 = the whole pool). The cap shapes
	// scheduling fairness, not the budget — the pool bounds total
	// concurrency regardless.
	Workers int
	// Config selects execution mode and engine options. Config.Device is
	// ignored: parallel jobs always run on a device leased from the
	// engine's pool.
	Config flow.Config
	// Custom, when non-nil, replaces the flow.Run invocation for this job.
	// It runs on the job's runner goroutine under the merged per-job and
	// engine-wide context and draws any device capacity from its own leases
	// of the given pool. AIG is still required (it sizes the before-stats),
	// and Script still labels the job. The partition-parallel batch path
	// uses this to fan a job's sub-partitions onto the engine's pool.
	Custom func(ctx context.Context, pool *Pool) (flow.Result, error)
	// Policy, when non-nil, overrides the engine-wide supervision policy
	// for this job.
	Policy *Policy
	// FaultPlans is a chaos/test facility: the plans are injected into each
	// attempt's leased device, with fire-progress carried across attempts.
	// Ignored for Custom jobs, which manage their own leases.
	FaultPlans []gpu.FaultPlan

	// admitted is when Submit admitted the job (zero until Do admits a job of
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

// Result reports one finished job: the run record (flow.Result) plus what
// supervision adds. It is the one job-report struct — the public
// aigre.BatchResult embeds it — and its JSON form is a cmd/aigre -report job
// row (which is why LevelsBefore, not part of that schema, is untagged out).
type Result struct {
	Name   string `json:"name"`
	Script string `json:"script"`
	// Result is the run record. AIG is the optimized network; on a cancelled
	// job the partial result (the network after the last completed command),
	// nil only when the script failed to parse. Wall is start -> finish host
	// time over every attempt; Modeled and Incidents accumulate over
	// attempts; Timings, Profile and CacheStats are the last attempt's.
	flow.Result
	// Err is nil on success, the (wrapped) context error when the job was
	// cancelled, or the script error. Contained engine failures do not set
	// Err — they are listed in Incidents.
	Err error `json:"-"`
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
	// Queued is submission -> start.
	Queued time.Duration `json:"queued_ns"`

	NodesBefore  int `json:"nodes_before"`
	LevelsBefore int `json:"-"`
	NodesAfter   int `json:"nodes_after"`
	LevelsAfter  int `json:"levels_after"`
}

// Metrics aggregates an engine's fleet statistics. It is the one fleet-
// metrics struct (the public aigre.BatchMetrics is this type) and, marshalled
// as is, the "engine" block of aigred's GET /v1/stats — whose keys are the Go
// field names, so the fields that block never carried are tagged out.
type Metrics struct {
	Workers int // pool size W backing the engine
	// Finished (completed without error), Failed, Cancelled, TimedOut (killed
	// by a deadline, their own or the batch's) and Quarantined (poison jobs
	// withdrawn by the supervisor) partition the jobs by final outcome.
	Finished, Failed, Cancelled int
	TimedOut, Quarantined       int
	// Retries counts extra attempts beyond the first, fleet-wide.
	Retries int
	// PeakWorkers is the pool's observed concurrency high-water mark (never
	// above Workers: the shared-budget invariant); PeakQueueDepth the deepest
	// the admission queue got (jobs handed to Do never wait in it).
	PeakWorkers    int
	PeakQueueDepth int
	// Wall spans the first submission to the last job completion. JobWall
	// sums per-job host time — their ratio is the job-level concurrency.
	// Modeled sums the modeled device time of all jobs.
	Wall, JobWall, Modeled time.Duration
	// Utilization is the fraction of the worker budget kept busy executing
	// kernel bodies: busy-time / (Wall * Workers). Zero before any job
	// finishes.
	Utilization float64
	// CacheStats is the fleet-wide resynthesis-cache traffic delta. The
	// engine does not know the cache; the public aigre.Engine fills it when
	// BatchOptions.SharedCache is set (zero otherwise).
	CacheStats rcache.Stats

	Submitted int `json:"-"`
	Started   int `json:"-"`
	// QueueDepth is the number of jobs still waiting at the time of the
	// Metrics call.
	QueueDepth int `json:"-"`
}

// Options configures an Engine.
type Options struct {
	// MaxConcurrentJobs bounds how many submitted jobs run at once (0 = the
	// pool's worker count; Do calls are their callers' to bound): the memory
	// held by in-flight jobs, and what keeps the priority queue meaningful.
	MaxConcurrentJobs int
	// Policy is the engine-wide supervision policy (zero = one attempt, no
	// deadline, no watchdog). Job.Policy overrides it per job.
	Policy Policy
	// Journal, when non-nil, receives every supervision event durably.
	Journal *journal.Journal
}

// Ticket is the handle Submit returns; Wait blocks for the job's Result.
type Ticket struct {
	done chan struct{}
	res  Result
}

// Wait blocks until the job finishes and returns its result.
func (t *Ticket) Wait() Result {
	<-t.done
	return t.res
}

// Done is closed when the job has finished.
func (t *Ticket) Done() <-chan struct{} { return t.done }

type queuedJob struct {
	job    Job
	ctx    context.Context
	ticket *Ticket
	seq    int // FIFO tie-break within a priority
}

// Engine runs jobs on device capacity leased from the shared pool: Do on the
// caller's goroutine, Submit by priority on a bounded set of runners.
type Engine struct {
	pool   *Pool
	ctx    context.Context // engine-wide cancellation
	policy Policy
	jour   *journal.Journal

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobHeap
	closed  bool
	seq     int
	metrics Metrics
	first   time.Time // first submission
	last    time.Time // latest completion

	runners int            // runner goroutines, started by the first Submit
	running sync.WaitGroup // started runners and in-flight Do calls
}

// ErrClosed is what Submit returns, and Do reports, after Close or Shutdown.
var ErrClosed = errors.New("sched: engine closed")

// ErrDrained resolves the tickets of jobs that were still queued when
// Shutdown drained the engine: they never started and were not run.
var ErrDrained = errors.New("sched: engine drained before the job started")

// NewEngine returns an engine over pool. ctx, when non-nil, cancels every
// job (queued and running) engine-wide when it is done. The runners start
// with the first Submit.
func NewEngine(ctx context.Context, pool *Pool, opts Options) *Engine {
	if ctx == nil {
		ctx = context.Background()
	}
	e := &Engine{pool: pool, ctx: ctx, policy: opts.Policy, jour: opts.Journal,
		runners: opts.MaxConcurrentJobs}
	e.cond = sync.NewCond(&e.mu)
	e.metrics.Workers = pool.Workers()
	if e.runners <= 0 {
		e.runners = pool.Workers()
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

// Submit enqueues a job. ctx, when non-nil, cancels this job alone; the
// engine-wide context still applies. The returned Ticket resolves when the
// job finishes (or is cancelled while queued).
func (e *Engine) Submit(ctx context.Context, job Job) (*Ticket, error) {
	if err := job.prepare(); err != nil {
		return nil, err
	}
	t := &Ticket{done: make(chan struct{})}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrClosed
	}
	if e.seq == 0 {
		e.running.Add(e.runners)
		for i := 0; i < e.runners; i++ {
			go e.runner()
		}
	}
	e.admit(&job)
	heap.Push(&e.queue, &queuedJob{job: job, ctx: ctx, ticket: t, seq: e.seq})
	e.seq++
	if d := len(e.queue); d > e.metrics.PeakQueueDepth {
		e.metrics.PeakQueueDepth = d
	}
	e.cond.Signal()
	return t, nil
}

// Close stops admission, drains the queue, and waits for every job (Do calls
// included) to finish. Safe to call once; Submit and Do then report ErrClosed.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	e.running.Wait()
}

// Shutdown is the serve-mode drain: it stops admission, withdraws every job
// still waiting in the queue *without running it* — their tickets resolve
// Cancelled with an error wrapping ErrDrained, so a durable queue feeding
// the engine can checkpoint them — and waits for the in-flight jobs to
// finish until ctx is done.
//
// It returns how many queued jobs were dropped and whether every in-flight
// job finished before the deadline. On ok == false the stragglers are still
// running: cancel the engine-wide context to force them to stop at the next
// kernel-launch boundary, then Close (which waits) to reap them.
func (e *Engine) Shutdown(ctx context.Context) (dropped int, ok bool) {
	e.mu.Lock()
	e.closed = true
	for len(e.queue) > 0 {
		q := heap.Pop(&e.queue).(*queuedJob)
		res := Result{
			Name:      q.job.Name,
			Script:    q.job.Script,
			Err:       fmt.Errorf("sched: job %q: %w", q.job.Name, ErrDrained),
			Cancelled: true,
			Queued:    time.Since(q.job.admitted),
		}
		res.NodesBefore = q.job.AIG.NumAnds()
		res.LevelsBefore = q.job.AIG.Levels()
		e.metrics.Cancelled++
		e.jour.Append(journal.Entry{Job: q.job.Name, Event: journal.EventCancel,
			Detail: ErrDrained.Error()})
		q.ticket.res = res
		close(q.ticket.done)
		dropped++
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	done := make(chan struct{})
	go func() {
		e.running.Wait()
		close(done)
	}()
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-done:
		return dropped, true
	case <-ctx.Done():
		return dropped, false
	}
}

// Metrics returns a snapshot of the fleet statistics.
func (e *Engine) Metrics() Metrics {
	e.mu.Lock()
	defer e.mu.Unlock()
	m := e.metrics
	m.QueueDepth = len(e.queue)
	if !e.first.IsZero() && e.last.After(e.first) {
		m.Wall = e.last.Sub(e.first)
	}
	m.PeakWorkers = e.pool.PeakWorkers()
	if m.Wall > 0 && m.Workers > 0 {
		m.Utilization = e.pool.BusyTime().Seconds() / (m.Wall.Seconds() * float64(m.Workers))
	}
	return m
}

func (e *Engine) runner() {
	defer e.running.Done()
	for {
		e.mu.Lock()
		for len(e.queue) == 0 && !e.closed {
			e.cond.Wait()
		}
		if len(e.queue) == 0 {
			e.mu.Unlock()
			return
		}
		q := heap.Pop(&e.queue).(*queuedJob)
		e.mu.Unlock()
		q.ticket.res = e.Do(q.ctx, q.job)
		close(q.ticket.done)
	}
}

// Do runs one job to completion on the calling goroutine: the one function
// that executes a job. The runners call it for submitted jobs; the public
// Engine.Run (and through it Network.Run and the aigred workers) calls it
// directly, past the admission queue and MaxConcurrentJobs.
//
// The job runs under ctx (nil = none) merged with the engine-wide context,
// under its own or the engine's policy, and counts in Metrics as a submitted
// job does. After Close or Shutdown, which wait for calls in flight, nothing
// runs and the result carries ErrClosed.
func (e *Engine) Do(ctx context.Context, job Job) Result {
	err := job.prepare()
	res := Result{Name: job.Name, Script: job.Script, Err: err}
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
	// done, cancel synchronously so a queued job cannot slip through and run
	// to completion before the callback goroutine is scheduled.
	if e.ctx.Err() != nil {
		cancel()
	}

	pol := e.policy
	if job.Policy != nil {
		pol = *job.Policy
	}
	// Profiler labels: every sample taken inside this job's attempts — and in
	// any goroutine they spawn, worker bodies included — carries the job name,
	// so a CPU profile of a batch run breaks down by job out of the box.
	pprof.Do(outer, pprof.Labels("sched_job", job.Name), func(outer context.Context) {
		e.supervise(outer, &job, pol, &res)
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
// pool (engine-wide cancellation from ctx) and returns the results in
// submission order together with the fleet metrics. maxConcurrent bounds
// simultaneous jobs (0 = pool workers).
func RunJobs(ctx context.Context, pool *Pool, jobs []Job, maxConcurrent int) ([]Result, Metrics) {
	return RunSupervised(ctx, pool, jobs, Options{MaxConcurrentJobs: maxConcurrent})
}

// RunSupervised is RunJobs with full engine options: a supervision policy
// governing every job (per-job overrides via Job.Policy) and an optional
// durable journal receiving the fleet's lifecycle events.
func RunSupervised(ctx context.Context, pool *Pool, jobs []Job, opts Options) ([]Result, Metrics) {
	e := NewEngine(ctx, pool, opts)
	tickets := make([]*Ticket, len(jobs))
	out := make([]Result, len(jobs))
	for i, j := range jobs {
		if tickets[i], out[i].Err = e.Submit(ctx, j); out[i].Err != nil {
			out[i].Name, out[i].Script = j.Name, j.Script
		}
	}
	e.Close()
	for i, t := range tickets {
		if t != nil {
			out[i] = t.Wait()
		}
	}
	return out, e.Metrics()
}

// jobHeap is a max-heap on (Priority, -seq): highest priority first,
// submission order within a priority.
type jobHeap []*queuedJob

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].job.Priority != h[j].job.Priority {
		return h[i].job.Priority > h[j].job.Priority
	}
	return h[i].seq < h[j].seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*queuedJob)) }
func (h *jobHeap) Pop() any {
	old := *h
	n := len(old)
	q := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return q
}
