// Job supervision: deadlines, classified retry with backoff, watchdog
// preemption of stuck attempts, quarantine of poison jobs, and a durable
// journal of every lifecycle event.
//
// The flow layer (PR 2) contains faults *within* one script run — a kernel
// panic degrades a command, it does not kill the job. The supervisor is the
// fleet-level complement: it decides what a whole job's attempt outcome means
// (retry it, quarantine it, report it timed out) and leaves a replayable
// record. The planned aigred daemon fronts exactly this loop.
package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/journal"
)

// supervise runs job under pol until an attempt succeeds, the retry
// budget runs dry, or a non-retryable failure lands, filling res with the
// final outcome and the accumulated attempt history.
func (e *Engine) supervise(outer context.Context, job *Job, pol Policy, res *Result) {
	budget := pol.Budget
	if budget == nil && pol.Retries > 0 {
		budget = NewRetryBudget(pol.Retries)
	}
	// Fault plans carry across attempts with their fire-progress, so a plan
	// armed for the Nth matching launch counts launches cumulatively over
	// the job, not per attempt.
	faults := append([]gpu.FaultPlan(nil), job.FaultPlans...)
	// Sequential non-custom jobs never reach a launch boundary, so they
	// produce no heartbeat; watching them would always preempt.
	watched := pol.StuckTimeout > 0 && (job.Config.Parallel || job.Custom != nil)

	for attempt := 1; ; attempt++ {
		res.Attempts = attempt
		e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt, Event: journal.EventAttempt})

		fres, dev, err, cls := e.attempt(outer, job, pol, watched, faults)

		incs := fres.Incidents
		for i := range incs {
			incs[i].Attempt = attempt
			if incs[i].Time.IsZero() {
				incs[i].Time = time.Now()
			}
			inc := incs[i]
			e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
				Event: journal.EventIncident, Class: inc.Class, Detail: inc.Detail, Incident: &inc})
		}
		// The job's record is the latest attempt's run record with the history
		// carried forward: incidents and modeled time accumulate, and an
		// attempt that produced no network keeps the previous one.
		fres.Incidents = append(res.Incidents, incs...)
		fres.Modeled += res.Modeled
		if fres.AIG == nil {
			fres.AIG = res.AIG
		}
		res.Result = fres
		if dev != nil {
			faults = dev.Faults()
		}

		if err == nil {
			transient := 0
			for _, inc := range incs {
				if inc.Class == flow.ClassTransient {
					transient++
				}
			}
			if pol.RetryDegraded && transient > 0 && outer.Err() == nil && budget.Take() {
				d := pol.backoffFor(attempt)
				e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
					Event: journal.EventRetry, Class: flow.ClassTransient, Backoff: d,
					Detail: fmt.Sprintf("discarding result degraded by %d transient incident(s)", transient)})
				if !sleepInterruptible(outer, d) {
					e.finish(job, res, ClassCancelled, cancelErrFor(outer, job.Name), attempt, pol)
					return
				}
				continue
			}
			res.Err = nil
			e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt, Event: journal.EventDone})
			return
		}

		// External shutdown dominates every other outcome: the batch window
		// expired or the engine is closing. Never retried.
		if oerr := outer.Err(); oerr != nil {
			if errors.Is(oerr, context.DeadlineExceeded) {
				res.TimedOut = true
				res.Err = err
				e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
					Event: journal.EventTimeout, Class: cls.String(), Detail: err.Error()})
			} else {
				res.Cancelled = true
				res.Err = err
				e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
					Event: journal.EventCancel, Detail: err.Error()})
			}
			return
		}

		switch cls {
		case ClassStuck:
			res.Preemptions++
			e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
				Event: journal.EventPreempt, Class: cls.String(), Detail: err.Error()})
		case ClassTimeout:
			e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
				Event: journal.EventTimeout, Class: cls.String(), Detail: err.Error()})
		}

		if cls.Retryable() && budget.Take() {
			d := pol.backoffFor(attempt)
			e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
				Event: journal.EventRetry, Class: cls.String(), Detail: err.Error(), Backoff: d})
			if !sleepInterruptible(outer, d) {
				e.finish(job, res, ClassCancelled, cancelErrFor(outer, job.Name), attempt, pol)
				return
			}
			continue
		}

		e.finish(job, res, cls, err, attempt, pol)
		return
	}
}

// finish records a terminal failure outcome: cancelled, timed out, failed,
// or — when a retryable class ran the budget dry (or the watchdog caught the
// job) — quarantined.
func (e *Engine) finish(job *Job, res *Result, cls Class, err error, attempt int, pol Policy) {
	switch cls {
	case ClassCancelled:
		if errors.Is(err, context.DeadlineExceeded) {
			res.TimedOut = true
			e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
				Event: journal.EventTimeout, Detail: err.Error()})
		} else {
			res.Cancelled = true
			e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
				Event: journal.EventCancel, Detail: err.Error()})
		}
	case ClassStuck:
		// A stuck job is poison by definition: quarantine even when the
		// policy granted no retries.
		res.Quarantined = true
	case ClassTimeout:
		res.TimedOut = true
		res.Quarantined = pol.retriesEnabled()
	case ClassTransient:
		res.Quarantined = pol.retriesEnabled()
		if !res.Quarantined {
			e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
				Event: journal.EventFail, Class: cls.String(), Detail: err.Error()})
		}
	default:
		e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
			Event: journal.EventFail, Class: cls.String(), Detail: err.Error()})
	}
	if res.Quarantined {
		err = fmt.Errorf("sched: job %q quarantined after %d attempt(s): %w", job.Name, attempt, err)
		e.jour.Append(journal.Entry{Job: job.Name, Attempt: attempt,
			Event: journal.EventQuarantine, Class: cls.String(), Detail: err.Error()})
	}
	res.Err = err
}

// attempt executes one supervised attempt under its own deadline and
// watchdog, returning the flow result, the leased device (nil for custom or
// sequential jobs), the attempt error, and its supervision class.
func (e *Engine) attempt(outer context.Context, job *Job, pol Policy, watched bool, faults []gpu.FaultPlan) (flow.Result, *gpu.Device, error, Class) {
	start := time.Now()
	base, preempt := context.WithCancelCause(outer)
	defer preempt(nil)
	ctx := context.Context(base)
	if pol.JobTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, pol.JobTimeout)
		defer cancel()
	}

	if watched {
		// Reuse a heartbeat installed by an outer supervisor (a partitioned
		// job's sub-jobs run under the parent's watchdog); otherwise mint
		// one and thread it through the context for nested engines.
		hb := HeartbeatFrom(ctx)
		if hb == nil {
			hb = &gpu.Heartbeat{}
			ctx = WithHeartbeat(ctx, hb)
		}
		watchDone := make(chan struct{})
		defer close(watchDone)
		go watch(ctx, watchDone, hb, start, pol.StuckTimeout, preempt)
	}

	cfg := job.Config
	cfg.Device = nil
	var dev *gpu.Device
	var fres flow.Result
	var err error
	if job.Custom != nil {
		fres, err = job.Custom(ctx, e.pool)
	} else {
		if cfg.Parallel {
			dev = e.pool.Lease(job.Workers)
			if hb := HeartbeatFrom(ctx); hb != nil {
				dev.SetHeartbeat(hb)
			}
			if len(faults) > 0 {
				dev.InjectFaults(faults...)
			}
			cfg.Device = dev
		}
		fres, err = flow.Run(ctx, job.AIG, job.Script, cfg)
	}

	cls := Classify(err)
	if err != nil && errors.Is(context.Cause(ctx), ErrStuck) {
		cls = ClassStuck
		err = fmt.Errorf("%w (no heartbeat for %v)", ErrStuck, pol.StuckTimeout)
	}
	return fres, dev, err, cls
}

// watch preempts the attempt when the heartbeat goes quiet for limit.
func watch(ctx context.Context, done <-chan struct{}, hb *gpu.Heartbeat, start time.Time, limit time.Duration, preempt context.CancelCauseFunc) {
	interval := limit / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-ctx.Done():
			return
		case <-t.C:
			last := hb.Last()
			if last.IsZero() {
				last = start
			}
			if time.Since(last) >= limit {
				preempt(ErrStuck)
				return
			}
		}
	}
}

// sleepInterruptible pauses for d, returning false when ctx was cancelled
// before the pause completed.
func sleepInterruptible(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// cancelErrFor wraps the outer context error observed while a job named name
// was between attempts.
func cancelErrFor(outer context.Context, name string) error {
	err := outer.Err()
	if err == nil {
		err = context.Canceled
	}
	return fmt.Errorf("sched: job %q cancelled during backoff: %w", name, err)
}
