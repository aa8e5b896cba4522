package aigre

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"

	"aigre/internal/flow"
	"aigre/internal/journal"
	"aigre/internal/partition"
	"aigre/internal/sched"
)

// Engine is what every job runs on: a fleet sharing one bounded worker pool,
// one supervision policy, and (optionally) one resynthesis cache and journal.
// Network.Run opens one for its one job, RunBatch for its slice, and daemons
// such as cmd/aigred keep one open across many jobs.
type Engine struct {
	opts BatchOptions
	pool *sched.Pool
	eng  *sched.Engine
	jour *journal.Journal

	n            atomic.Int64 // jobs converted, offsets per-job retry-jitter seeds
	sharedBefore CacheStats
}

// JobTicket is the handle Engine.Submit returns; Wait blocks for the job's
// BatchResult.
type JobTicket struct {
	st *sched.Ticket
	// partition is written by the job's partition runner before the ticket
	// resolves (nil for unpartitioned jobs).
	partition *PartitionReport
}

// batchResultOf wraps a scheduler report (and the partition report, if any)
// in the public shape.
func batchResultOf(r sched.Result, pr *PartitionReport) BatchResult {
	br := BatchResult{Result: r, Partition: pr}
	if r.AIG != nil {
		br.AIG = &Network{aig: r.AIG}
	}
	return br
}

// Wait blocks until the job finishes and returns its result.
func (t *JobTicket) Wait() BatchResult { return batchResultOf(t.st.Wait(), t.partition) }

// Done is closed when the job has finished.
func (t *JobTicket) Done() <-chan struct{} { return t.st.Done() }

// NewEngine starts a serve-mode engine configured like a RunBatch call.
// ctx, when non-nil, cancels every job (queued and running) engine-wide when
// it is done. The engine holds opts.Workers pool workers until Close.
func NewEngine(ctx context.Context, opts BatchOptions) (*Engine, error) {
	var jour *journal.Journal
	if opts.JournalPath != "" {
		var err error
		jour, err = journal.Create(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("aigre: %w", err)
		}
	} else if opts.OnEvent != nil {
		// No journal file wanted: a writer-less journal still stamps every
		// entry and feeds the live stream.
		jour = journal.New(nil)
	}
	jour.Observe(opts.OnEvent)
	e := &Engine{opts: opts, jour: jour}
	if opts.SharedCache != nil {
		e.sharedBefore = opts.SharedCache.Stats()
	}
	e.pool = sched.NewPool(opts.Workers)
	e.eng = sched.NewEngine(ctx, e.pool, sched.Options{
		MaxConcurrentJobs: opts.MaxConcurrentJobs,
		Policy:            opts.Policy,
		Journal:           jour,
	})
	return e, nil
}

// check validates a job the way RunBatch's up-front pass does, returning the
// bare defect so callers can prefix their own context.
func (b Batch) check() error {
	if b.AIG == nil {
		return fmt.Errorf("has no network")
	}
	if _, err := flow.Parse(b.Script); err != nil {
		return err
	}
	switch m := b.Options.Partition.Mode; m {
	case PartitionOff, PartitionCones, PartitionLevels:
		return nil
	default:
		return fmt.Errorf("aigre: partition mode %v is not a partitioning strategy", m)
	}
}

// Submit admits one job to the engine's priority queue. ctx, when non-nil,
// cancels this job alone. The call validates the job (nil network, unparsable
// script, unknown partition mode) before admitting it; after Shutdown or
// Close it returns sched.ErrClosed.
func (e *Engine) Submit(ctx context.Context, b Batch) (*JobTicket, error) {
	if err := b.check(); err != nil {
		return nil, fmt.Errorf("aigre: job %q: %w", b.Name, err)
	}
	t := &JobTicket{}
	st, err := e.eng.Submit(ctx, e.convert(b, &t.partition))
	if err != nil {
		return nil, err
	}
	t.st = st
	return t, nil
}

// Run is the blocking form of Submit: one job, run to completion on the
// calling goroutine — same validation, supervision, journal, metrics and
// result — past the priority queue and MaxConcurrentJobs. A failing or
// cancelled job reports through BatchResult.Err; the call errors only where
// Submit would.
func (e *Engine) Run(ctx context.Context, b Batch) (BatchResult, error) {
	if err := b.check(); err != nil {
		return BatchResult{}, fmt.Errorf("aigre: job %q: %w", b.Name, err)
	}
	var pr *PartitionReport
	r := e.eng.Do(ctx, e.convert(b, &pr))
	if errors.Is(r.Err, sched.ErrClosed) {
		return BatchResult{}, r.Err
	}
	return batchResultOf(r, pr), nil
}

// Shutdown is the graceful drain: it stops admission, withdraws jobs still
// waiting in the queue without running them — their tickets resolve
// Cancelled with sched.ErrDrained, so a durable queue can checkpoint them —
// and waits until ctx is done for the in-flight jobs to finish. It returns
// how many queued jobs were dropped and whether every in-flight job beat the
// deadline; on ok == false cancel the engine-wide context and Close to reap
// the stragglers.
func (e *Engine) Shutdown(ctx context.Context) (dropped int, ok bool) {
	return e.eng.Shutdown(ctx)
}

// Close stops admission, runs the remaining queue to completion, waits for
// every job, and releases the pool and journal. Use Shutdown first for a
// drain that does not run the backlog.
func (e *Engine) Close() {
	e.eng.Close()
	e.pool.Close()
	e.jour.Close()
}

// Metrics snapshots the fleet statistics accumulated since NewEngine,
// including the shared-cache traffic delta when BatchOptions.SharedCache
// was set.
func (e *Engine) Metrics() BatchMetrics {
	m := e.eng.Metrics()
	if e.opts.SharedCache != nil {
		m.CacheStats = e.opts.SharedCache.Stats().Sub(e.sharedBefore)
	}
	return m
}

// convert builds the sched job for b: engine options merged with the shared
// cache and, for a partitioned job, a custom runner that fans the partitions
// onto the engine's pool under a retry budget shared with the job's own
// attempts. *prp receives the partition report before the job finishes.
func (e *Engine) convert(b Batch, prp **PartitionReport) sched.Job {
	seq := e.n.Add(1) - 1
	o := b.Options
	if e.opts.SharedCache != nil {
		o.Cache = e.opts.SharedCache
	}
	sj := sched.Job{
		Name:       b.Name,
		AIG:        b.AIG.aig,
		Script:     b.Script,
		Priority:   b.Priority,
		Workers:    b.Workers,
		Config:     o.flowConfig(),
		FaultPlans: o.FaultPlans,
	}
	if o.Partition.Mode == PartitionOff {
		return sj
	}
	pol := e.opts.Policy
	in, script := b.AIG.aig, b.Script
	popts := partition.Options{Split: o.Partition, Workers: b.Workers, Flow: o.flowConfig(), Journal: e.jour}
	if pol.Retries > 0 {
		// One budget shared between the job's outer attempts and its
		// per-partition jobs: however the faults land, the job's total
		// retry allowance stays bounded at Policy.Retries.
		budget := sched.NewRetryBudget(pol.Retries)
		jobPol := pol
		jobPol.Budget = budget
		sj.Policy = &jobPol
		popts.Supervise = sched.Policy{
			Retries:    pol.Retries,
			Budget:     budget,
			Backoff:    pol.Backoff,
			MaxBackoff: pol.MaxBackoff,
			Seed:       pol.Seed + seq,
		}
	}
	sj.Custom = func(ctx context.Context, pool *sched.Pool) (flow.Result, error) {
		popts.Pool = pool
		pres, err := partition.Run(ctx, in, script, popts)
		*prp = reportOf(&pres)
		return pres.Result, err
	}
	return sj
}

// Queued reports the current admission-queue depth (jobs submitted but not
// yet started).
func (e *Engine) Queued() int { return e.eng.Metrics().QueueDepth }
