package sched

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"aigre/internal/flow"
	"aigre/internal/gpu"
)

// ErrStuck is the cancellation cause the watchdog sets when it preempts an
// attempt whose heartbeat went quiet. The attempt observes it as an ordinary
// context cancellation; the supervisor recovers the cause with context.Cause
// and classifies the attempt ClassStuck.
var ErrStuck = errors.New("sched: job preempted: heartbeat stalled")

// Class is the supervision class of a job failure: it decides whether a
// fresh attempt is worth a retry token.
type Class int

const (
	// ClassNone: no failure.
	ClassNone Class = iota
	// ClassTransient faults can plausibly clear on a fresh attempt: an
	// aborted kernel launch (*gpu.LaunchError), a seam-gate rollback.
	ClassTransient
	// ClassPermanent faults reproduce on retry: equivalence refutations,
	// structural invariant violations, script parse errors, non-kernel
	// engine panics.
	ClassPermanent
	// ClassTimeout: the attempt's own deadline (Policy.JobTimeout) expired.
	ClassTimeout
	// ClassStuck: the watchdog preempted the attempt (heartbeat stalled).
	ClassStuck
	// ClassCancelled: cancellation from outside the supervisor — the batch
	// or engine shut down. Never retried.
	ClassCancelled
)

func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassTransient:
		return flow.ClassTransient
	case ClassPermanent:
		return flow.ClassPermanent
	case ClassTimeout:
		return "timeout"
	case ClassStuck:
		return "stuck"
	case ClassCancelled:
		return "cancelled"
	}
	return "unknown"
}

// Retryable reports whether a failure of this class may draw a retry token.
// Timeouts and watchdog preemptions are retryable: under fleet contention
// they are often transient, and the retry budget bounds the damage when they
// are not (the job is then quarantined).
func (c Class) Retryable() bool {
	return c == ClassTransient || c == ClassTimeout || c == ClassStuck
}

// Classify maps an attempt error to its supervision class.
func Classify(err error) Class {
	if err == nil {
		return ClassNone
	}
	var le *gpu.LaunchError
	switch {
	case errors.Is(err, ErrStuck):
		return ClassStuck
	case errors.Is(err, context.DeadlineExceeded):
		return ClassTimeout
	case errors.Is(err, context.Canceled):
		return ClassCancelled
	case errors.As(err, &le):
		return ClassTransient
	}
	return ClassPermanent
}

// Policy governs supervision of a job — or, as BatchOptions.Policy (the
// public aigre.Policy is this type), of every job in a batch: per-attempt
// deadlines, classified retry with exponential backoff, watchdog preemption
// of stuck jobs, and quarantine of jobs that exhaust their retry budget. The
// zero Policy supervises nothing — one attempt, no deadline, no watchdog — so
// unsupervised callers pay nothing.
type Policy struct {
	// JobTimeout is the per-attempt deadline of one job (0 = none). It is
	// distinct from cancelling the batch's ctx: a timed-out attempt may be
	// retried, and other jobs keep running.
	JobTimeout time.Duration
	// Retries is each job's retry budget: how many extra attempts its
	// transient failures (aborted kernel launches, seam-gate rollbacks,
	// deadline kills, watchdog preemptions) may consume. A job that
	// exhausts the budget is quarantined. With a budget, an attempt that
	// completed but recorded transient-class incidents (a contained kernel
	// fault degraded a command) is also retried, its degraded result
	// discarded in the hope of a clean pass; the last degraded result stands
	// when the budget runs dry.
	Retries int
	// StuckTimeout arms the watchdog: an attempt whose kernel-launch
	// heartbeat advances nothing for this long is preempted and, with no
	// budget left, quarantined (0 = no watchdog). Only jobs whose script runs
	// on a device (Config.Parallel, partitioned or not) and Custom jobs are
	// watched: a sequential script launches no kernel and never beats.
	StuckTimeout time.Duration
}

// The retry backoff: the pause before a job's first retry, doubling each
// further retry up to the cap, with ±50% jitter.
const (
	backoffBase = 5 * time.Millisecond
	backoffCap  = 500 * time.Millisecond
)

// backoffFor returns the pause before retrying the named job after its
// given (1-based) failed attempt: exponential doubling from backoffBase,
// capped at backoffCap, with ±50% jitter seeded by the job name and the
// attempt — deterministic per (job, attempt), so a retry schedule
// reproduces, yet jobs that fail together do not retry together.
func backoffFor(job string, attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffCap; i++ {
		d *= 2
	}
	d = min(d, backoffCap)
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", job, attempt)
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}
