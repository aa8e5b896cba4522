package aigre

import (
	"context"
	"errors"
	"fmt"

	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/journal"
	"aigre/internal/sched"
)

// Engine is what every job runs on: a fleet sharing one bounded worker pool,
// one supervision policy, and (optionally) one journal.
// Network.Run opens one for its one job, RunBatch for its slice, and daemons
// such as cmd/aigred keep one open across many jobs, each handed to Run by a
// worker of their own.
type Engine struct {
	pool *gpu.Pool
	eng  *sched.Engine
	jour *journal.Journal
}

// NewEngine starts an engine configured like a RunBatch call. ctx, when
// non-nil, cancels every job engine-wide when it is done. The engine holds
// opts.Workers pool workers until Close.
func NewEngine(ctx context.Context, opts BatchOptions) (*Engine, error) {
	e := &Engine{}
	sink := opts.OnEvent
	if opts.JournalPath != "" {
		jour, err := journal.Create(opts.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("aigre: %w", err)
		}
		e.jour = jour
		sink = func(ev JobEvent) {
			jour.AppendRecord(ev) // best effort: a lost journal line never fails a job
			if opts.OnEvent != nil {
				opts.OnEvent(ev)
			}
		}
	}
	e.pool = gpu.NewPool(opts.Workers)
	e.eng = sched.NewEngine(ctx, e.pool, sched.Options{
		MaxConcurrentJobs: opts.MaxConcurrentJobs,
		Policy:            opts.Policy,
		OnEvent:           sink,
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
		return fmt.Errorf("partition mode %v is not a partitioning strategy", m)
	}
}

// Run runs one job to completion on the calling goroutine, outside
// MaxConcurrentJobs, with the supervision, journal, metrics and result a
// RunBatch job gets. ctx, when non-nil, cancels this job alone. A failing or
// cancelled job reports through Result.Err; the call itself errors only
// on a malformed job (nil network, unparsable script, unknown partition mode)
// and, after Close, with sched.ErrClosed.
func (e *Engine) Run(ctx context.Context, b Batch) (Result, error) {
	if err := b.check(); err != nil {
		return Result{}, fmt.Errorf("aigre: job %q: %w", b.Name, err)
	}
	r := e.eng.Do(ctx, b.job())
	if errors.Is(r.Err, sched.ErrClosed) {
		return Result{}, r.Err
	}
	return resultOf(r), nil
}

// Close refuses new work, waits for the jobs in flight, and releases the
// pool and journal. To stop the jobs in flight sooner, cancel the engine-wide
// context first.
func (e *Engine) Close() {
	e.eng.Close()
	e.pool.Close()
	e.jour.Close()
}

// Metrics snapshots the fleet statistics accumulated since NewEngine.
func (e *Engine) Metrics() BatchMetrics { return e.eng.Metrics() }

// job builds the sched job for b. A partitioned job stays one sched job,
// whose attempts run its partitions.
func (b Batch) job() sched.Job {
	o := b.Options
	return sched.Job{
		Name:       b.Name,
		AIG:        b.AIG.aig,
		Script:     b.Script,
		Priority:   b.Priority,
		Workers:    o.Workers,
		Config:     o.flowConfig(),
		Partition:  o.Partition,
		FaultPlans: o.FaultPlans,
	}
}
