package sched

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"time"

	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/hashtable"
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
	// aborted kernel launch (*gpu.LaunchError), a full hash table, a
	// seam-gate rollback.
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
	case errors.Is(err, hashtable.ErrTableFull):
		return ClassTransient
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
	// transient failures (aborted kernel launches, full hash tables,
	// seam-gate rollbacks, deadline kills, watchdog preemptions) may
	// consume. A job that exhausts the budget is quarantined. For a
	// partitioned job the budget is shared with its per-partition jobs.
	Retries int
	// RetryDegraded also retries attempts that completed but recorded
	// transient-class incidents (a contained kernel fault degraded a
	// command), discarding the degraded result in the hope of a clean pass;
	// the last degraded result stands when the budget runs dry.
	RetryDegraded bool
	// Backoff is the delay before a job's first retry, doubling each
	// further retry with ±50% jitter (default 5ms); MaxBackoff caps the
	// doubling (default 500ms).
	Backoff    time.Duration
	MaxBackoff time.Duration
	// StuckTimeout arms the watchdog: an attempt whose kernel-launch
	// heartbeat advances nothing for this long is preempted and, with no
	// budget left, quarantined (0 = no watchdog). Only parallel and custom
	// jobs are watched — sequential jobs never beat.
	StuckTimeout time.Duration
	// Seed makes retry jitter deterministic; 0 is a valid seed.
	Seed int64
	// Budget is internal plumbing, not an option: when non-nil it replaces
	// the per-job budget minted from Retries. The engine sets it on the
	// per-job copy of a partitioned job's policy so the job's outer attempts
	// and its per-partition inner attempts draw down one allowance; callers
	// leave it nil.
	Budget *RetryBudget
}

// retriesEnabled reports whether the policy carries a nonzero retry
// allowance (its own or a shared budget).
func (p Policy) retriesEnabled() bool {
	return p.Retries > 0 || p.Budget != nil
}

// backoffFor returns the pause before retrying after the given (1-based)
// failed attempt: exponential doubling from Backoff, capped at MaxBackoff,
// with deterministic ±50% jitter so synchronized retries de-correlate.
func (p Policy) backoffFor(attempt int) time.Duration {
	base := p.Backoff
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	cap := p.MaxBackoff
	if cap <= 0 {
		cap = 500 * time.Millisecond
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	rng := rand.New(rand.NewSource(p.Seed*1000003 + int64(attempt)))
	return time.Duration(float64(d) * (0.5 + rng.Float64()))
}

// RetryBudget is a shared pool of retry tokens. A partitioned job hands one
// budget to both its outer supervisor and its per-partition jobs, so however
// the faults land, the job's total retry allowance is bounded.
type RetryBudget struct {
	n atomic.Int64
}

// NewRetryBudget mints a budget of n tokens.
func NewRetryBudget(n int) *RetryBudget {
	b := &RetryBudget{}
	b.n.Store(int64(n))
	return b
}

// Take claims one token; it reports false when the budget is exhausted.
// A nil budget has nothing to give.
func (b *RetryBudget) Take() bool {
	if b == nil {
		return false
	}
	for {
		cur := b.n.Load()
		if cur <= 0 {
			return false
		}
		if b.n.CompareAndSwap(cur, cur-1) {
			return true
		}
	}
}

// Remaining reports the tokens left.
func (b *RetryBudget) Remaining() int {
	if b == nil {
		return 0
	}
	return int(b.n.Load())
}

// hbKey carries a *gpu.Heartbeat through a context so nested engines (a
// partitioned job fanning sub-jobs onto the same pool) attach their device
// leases to the supervising watchdog's heartbeat.
type hbKey struct{}

// WithHeartbeat returns a context carrying hb.
func WithHeartbeat(ctx context.Context, hb *gpu.Heartbeat) context.Context {
	return context.WithValue(ctx, hbKey{}, hb)
}

// HeartbeatFrom extracts the heartbeat installed by WithHeartbeat, or nil.
func HeartbeatFrom(ctx context.Context) *gpu.Heartbeat {
	hb, _ := ctx.Value(hbKey{}).(*gpu.Heartbeat)
	return hb
}
