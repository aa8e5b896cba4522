package aigre

import (
	"context"
	"fmt"

	"aigre/internal/flow"
	"aigre/internal/sched"
)

// Script presets for Batch.Script and the -batch manifest, mirroring the
// single-network entry points Resyn2, RfResyn, and CompressRS.
const (
	// ScriptResyn2 is ABC's resyn2 sequence.
	ScriptResyn2 = flow.Resyn2
	// ScriptRfResyn is the paper's rf_resyn sequence.
	ScriptRfResyn = flow.RfResyn
	// ScriptCompressRS is the compress2rs-style resubstitution sequence.
	ScriptCompressRS = flow.CompressRS
)

// Batch is one job in a RunBatch call: a network and the script to run on
// it. The input network is not mutated.
type Batch struct {
	// Name labels the job in the report (default: the network name).
	Name string
	// AIG is the input network.
	AIG *Network
	// Script is the command script, e.g. ScriptResyn2 or "b; rw; rfz".
	Script string
	// Priority orders the start of a batch's jobs: higher starts first, ties
	// in slice order.
	Priority int
	// Options selects engine parameters for this job, as documented there.
	// The job leases from the engine's pool (BatchOptions.Workers), capped by
	// Options.Workers. A partitioned job runs its partitions inside its own
	// attempt, at most the pool's width at once; Result.Partition carries the
	// report.
	Options Options
}

// Policy governs supervision of every job in a batch: per-job deadlines,
// classified retry with exponential backoff, watchdog preemption of stuck
// jobs, and quarantine of jobs that exhaust their retry budget. The zero
// Policy supervises nothing: one attempt per job, no deadline, no watchdog.
// See sched.Policy for the fields. A partitioned job is supervised as one
// unit: its attempt's deadline, watchdog and retries cover its partitions.
type Policy = sched.Policy

// JobEvent is one supervision event of an Engine: what BatchOptions.OnEvent
// receives and what a JournalPath line holds — an attempt starting, a
// contained incident (with the full flow.Incident attached), a retry with its
// backoff, a watchdog preemption, a deadline timeout, a quarantine, or the
// final outcome. Job is the Batch.Name of the job the event belongs to;
// Event is "attempt", "incident", "retry", "preempt", "timeout",
// "quarantine", "done", "fail", or "cancel"; Seq numbers the engine's events
// in emission order. See sched.Event for the fields.
type JobEvent = sched.Event

// BatchOptions configures RunBatch.
type BatchOptions struct {
	// Workers sizes the engine's pool: the host worker goroutines serving
	// every job's kernel launches (0 = GOMAXPROCS); the jobs together never
	// occupy more. For Network.Run, a one-job engine, it is Options.Workers.
	Workers int
	// MaxConcurrentJobs bounds how many jobs of a RunBatch call run at once
	// (0 = Workers); Engine.Run calls are their callers' to bound. The pool
	// already bounds host parallelism; this knob bounds memory held by
	// in-flight networks.
	MaxConcurrentJobs int
	// SharedCache, when set, is the resynthesis cache every job of this batch
	// uses, overriding each job's Options.Cache — an opt-in way to let jobs
	// over similar designs reuse each other's factoring work. The cache is
	// concurrency-safe and results remain bit-identical with or without it.
	// BatchMetrics.CacheStats reports the batch-wide traffic delta (nil
	// without a shared cache).
	SharedCache *Cache
	// Policy supervises every job of the batch (zero = unsupervised).
	Policy Policy
	// JournalPath, when non-empty, appends every supervision event —
	// attempts, contained incidents, retries, preemptions, timeouts,
	// quarantines, final outcomes — as one JSON line to a journal file that
	// survives the process and reads back with any JSONL reader. The file is
	// created if missing, appended otherwise.
	JournalPath string
	// OnEvent, when set, receives every supervision event of the batch or
	// engine — the same stream JournalPath persists, each event after its
	// line is appended — as it happens, with or without a journal file.
	// Calls are serialized in Seq order and run on the supervised job's own
	// path: keep the callback fast and non-blocking (hand the event to a
	// channel or bus), or it will stall the fleet. The aigred daemon's live
	// progress streams hang off this.
	OnEvent func(JobEvent)
}

// BatchMetrics aggregates fleet statistics of one RunBatch call or Engine:
// the worker budget, jobs by final outcome, retries, concurrency and queue
// high-water marks, wall / summed job wall / summed modeled time, worker
// utilization, and — when BatchOptions.SharedCache was set — the batch-wide
// resynthesis-cache traffic delta. See sched.Metrics for the fields.
type BatchMetrics = sched.Metrics

// RunBatch optimizes many networks concurrently over one shared, bounded
// worker budget: opts.Workers host goroutines serve the kernel launches of
// every job, so N jobs never use more host parallelism than one job with
// that many workers would.
//
// Results come back in job order. A failing or cancelled job never fails
// the batch — its Result carries the error. Cancelling ctx cancels the
// whole batch: running jobs stop at the next kernel-launch boundary and
// queued jobs return immediately, all marked Cancelled.
//
// The call errors only on a malformed batch: no jobs, a nil network, or a
// script that does not parse.
func RunBatch(ctx context.Context, jobs []Batch, opts BatchOptions) ([]Result, BatchMetrics, error) {
	if len(jobs) == 0 {
		return nil, BatchMetrics{}, fmt.Errorf("aigre: empty batch")
	}
	// Validate the whole batch before admitting anything, so a malformed job
	// fails the call without running its siblings.
	for i, b := range jobs {
		if err := b.check(); err != nil {
			return nil, BatchMetrics{}, fmt.Errorf("aigre: batch job %d (%s): %w", i, b.Name, err)
		}
	}
	e, err := NewEngine(ctx, opts)
	if err != nil {
		return nil, BatchMetrics{}, err
	}
	defer e.Close()
	sjobs := make([]sched.Job, len(jobs))
	for i, b := range jobs {
		sjobs[i] = e.convert(b)
	}
	out := make([]Result, len(jobs))
	for i, r := range e.eng.Batch(ctx, sjobs) {
		out[i] = resultOf(r)
	}
	return out, e.Metrics(), nil
}
