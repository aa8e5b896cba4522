package sched

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"aigre/internal/flow"
	"aigre/internal/gpu"
)

// runSupervised runs jobs as one Batch over a fresh engine with opts and
// returns the results with the fleet metrics.
func runSupervised(ctx context.Context, pool *gpu.Pool, jobs []Job, opts Options) ([]Result, Metrics) {
	e := NewEngine(ctx, pool, opts)
	out := e.Batch(ctx, jobs)
	e.Close()
	return out, e.Metrics()
}

// collect returns an OnEvent sink that records every event it receives, and
// the slice it fills.
func collect() (func(Event), *[]Event) {
	var evs []Event
	return func(ev Event) { evs = append(evs, ev) }, &evs
}

// customJob wraps a Custom func into a Job with the fields supervision needs.
func customJob(name string, a func(ctx context.Context, pool *gpu.Pool) (flow.Result, error)) Job {
	return Job{Name: name, AIG: testAIG(1), Script: "b", Custom: a}
}

// TestClassify pins the error taxonomy the retry loop is built on.
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassNone},
		{ErrStuck, ClassStuck},
		{context.DeadlineExceeded, ClassTimeout},
		{context.Canceled, ClassCancelled},
		{&gpu.LaunchError{Kernel: "k", Value: "boom"}, ClassTransient},
		{errors.New("parse error"), ClassPermanent},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
	for _, c := range []struct {
		cls  Class
		want bool
	}{{ClassTransient, true}, {ClassTimeout, true}, {ClassStuck, true},
		{ClassPermanent, false}, {ClassCancelled, false}, {ClassNone, false}} {
		if got := c.cls.Retryable(); got != c.want {
			t.Errorf("%v.Retryable() = %v, want %v", c.cls, got, c.want)
		}
	}
}

// TestRetryTransientToSuccess checks that a job failing with a transient
// class is retried within its budget and lands as Finished, with the attempt
// history journaled.
func TestRetryTransientToSuccess(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	sink, entries := collect()

	var calls atomic.Int64
	job := customJob("flaky", func(ctx context.Context, _ *gpu.Pool) (flow.Result, error) {
		if calls.Add(1) < 3 {
			return flow.Result{}, &gpu.LaunchError{Kernel: "rewrite/evaluate", Value: "boom"}
		}
		return flow.Result{AIG: testAIG(1)}, nil
	})
	pol := Policy{Retries: 3}
	res, m := runSupervised(context.Background(), pool, []Job{job}, Options{Policy: pol, OnEvent: sink})
	if res[0].Err != nil {
		t.Fatalf("retried job failed: %v", res[0].Err)
	}
	if res[0].Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", res[0].Attempts)
	}
	if m.Finished != 1 || m.Retries != 2 || m.Quarantined != 0 {
		t.Errorf("metrics = %+v", m)
	}
	var events []string
	for _, e := range *entries {
		events = append(events, e.Event)
	}
	want := []string{"attempt", "retry", "attempt", "retry", "attempt", "done"}
	if len(events) != len(want) {
		t.Fatalf("journal events %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("journal events %v, want %v", events, want)
		}
	}
}

// TestQuarantineOnExhaustedBudget checks that a job failing transiently on
// every attempt is quarantined, not merely failed.
func TestQuarantineOnExhaustedBudget(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	sink, entries := collect()
	job := customJob("poison", func(ctx context.Context, _ *gpu.Pool) (flow.Result, error) {
		return flow.Result{}, &gpu.LaunchError{Kernel: "k", Value: "poison"}
	})
	pol := Policy{Retries: 2}
	res, m := runSupervised(context.Background(), pool, []Job{job},
		Options{Policy: pol, OnEvent: sink})
	if !res[0].Quarantined {
		t.Fatalf("poison job not quarantined: %+v err=%v", res[0], res[0].Err)
	}
	if res[0].Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (1 + 2 retries)", res[0].Attempts)
	}
	if m.Quarantined != 1 || m.Failed != 0 {
		t.Errorf("metrics = %+v", m)
	}
	last := (*entries)[len(*entries)-1]
	if last.Event != EventQuarantine {
		t.Errorf("last journal event %q, want quarantine", last.Event)
	}
}

// TestPermanentFailureNotRetried checks that a permanent-class error consumes
// no retry tokens.
func TestPermanentFailureNotRetried(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	job := customJob("broken", func(ctx context.Context, _ *gpu.Pool) (flow.Result, error) {
		return flow.Result{}, errors.New("equivalence refuted")
	})
	pol := Policy{Retries: 3}
	res, m := runSupervised(context.Background(), pool, []Job{job}, Options{Policy: pol})
	if res[0].Attempts != 1 {
		t.Errorf("permanent failure retried: %d attempts", res[0].Attempts)
	}
	if res[0].Quarantined || res[0].Err == nil {
		t.Errorf("unexpected result %+v", res[0])
	}
	if m.Failed != 1 || m.Quarantined != 0 || m.Retries != 0 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestJobTimeoutDistinctFromCancel checks the satellite fix: a job killed by
// its own deadline reports TimedOut, an externally cancelled one Cancelled.
func TestJobTimeoutDistinctFromCancel(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	hang := func(ctx context.Context, _ *gpu.Pool) (flow.Result, error) {
		<-ctx.Done()
		return flow.Result{}, ctx.Err()
	}
	// Deadline kill, no retries: TimedOut, not Cancelled, not Quarantined.
	pol := Policy{JobTimeout: 20 * time.Millisecond}
	res, m := runSupervised(context.Background(), pool, []Job{customJob("slow", hang)}, Options{Policy: pol})
	if !res[0].TimedOut || res[0].Cancelled || res[0].Quarantined {
		t.Fatalf("deadline kill misclassified: %+v err=%v", res[0], res[0].Err)
	}
	if m.TimedOut != 1 || m.Cancelled != 0 {
		t.Errorf("metrics = %+v", m)
	}
	// External cancel: Cancelled, not TimedOut.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(10 * time.Millisecond); cancel() }()
	res2, m2 := runSupervised(ctx, pool, []Job{customJob("cancelled", hang)}, Options{})
	if !res2[0].Cancelled || res2[0].TimedOut {
		t.Fatalf("external cancel misclassified: %+v err=%v", res2[0], res2[0].Err)
	}
	if m2.Cancelled != 1 || m2.TimedOut != 0 {
		t.Errorf("metrics = %+v", m2)
	}
}

// TestDeadlineRetriesThenQuarantine checks that with retries enabled a job
// that keeps blowing its deadline is eventually quarantined as poison.
func TestDeadlineRetriesThenQuarantine(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	hang := func(ctx context.Context, _ *gpu.Pool) (flow.Result, error) {
		<-ctx.Done()
		return flow.Result{}, ctx.Err()
	}
	pol := Policy{JobTimeout: 10 * time.Millisecond, Retries: 2}
	res, m := runSupervised(context.Background(), pool, []Job{customJob("poison", hang)}, Options{Policy: pol})
	if !res[0].Quarantined || !res[0].TimedOut {
		t.Fatalf("repeated deadline kills not quarantined: %+v err=%v", res[0], res[0].Err)
	}
	if res[0].Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", res[0].Attempts)
	}
	if m.Quarantined != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestWatchdogPreemptsStuckJob checks that an attempt that stops beating is
// preempted with cause ErrStuck and quarantined.
func TestWatchdogPreemptsStuckJob(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	sink, entries := collect()
	stuck := customJob("stuck", func(ctx context.Context, _ *gpu.Pool) (flow.Result, error) {
		// Never beats: the watchdog must fire. Block until preempted.
		<-ctx.Done()
		return flow.Result{}, context.Cause(ctx)
	})
	pol := Policy{StuckTimeout: 25 * time.Millisecond, Retries: 1}
	res, m := runSupervised(context.Background(), pool, []Job{stuck},
		Options{Policy: pol, OnEvent: sink})
	if !res[0].Quarantined {
		t.Fatalf("stuck job not quarantined: %+v err=%v", res[0], res[0].Err)
	}
	if res[0].Preemptions != 2 {
		t.Errorf("Preemptions = %d, want 2 (initial + retry)", res[0].Preemptions)
	}
	if !errors.Is(res[0].Err, ErrStuck) {
		t.Errorf("Err does not trace to ErrStuck: %v", res[0].Err)
	}
	if m.Quarantined != 1 {
		t.Errorf("metrics = %+v", m)
	}
	preempts := 0
	for _, e := range *entries {
		if e.Event == EventPreempt {
			preempts++
		}
	}
	if preempts != 2 {
		t.Errorf("journaled %d preempt events, want 2", preempts)
	}
}

// TestWatchdogSparesBeatingJob checks that a job whose heartbeat keeps
// advancing is never preempted even when it runs far past StuckTimeout: the
// heartbeat rides the attempt's context, so a device the job binds to that
// context beats it at every launch.
func TestWatchdogSparesBeatingJob(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	beating := customJob("alive", func(ctx context.Context, pool *gpu.Pool) (flow.Result, error) {
		dev := pool.Lease(1)
		dev.Bind(ctx)
		for i := 0; i < 10; i++ {
			if err := dev.TryLaunch("beat", 1, func(int) int64 { return 1 }); err != nil {
				return flow.Result{}, err
			}
			time.Sleep(5 * time.Millisecond)
		}
		return flow.Result{AIG: testAIG(1)}, nil
	})
	pol := Policy{StuckTimeout: 20 * time.Millisecond}
	res, _ := runSupervised(context.Background(), pool, []Job{beating}, Options{Policy: pol})
	if res[0].Err != nil {
		t.Fatalf("beating job preempted: %v", res[0].Err)
	}
	if res[0].Preemptions != 0 {
		t.Errorf("Preemptions = %d, want 0", res[0].Preemptions)
	}
}

// TestRetryDegraded checks that a completed-but-degraded attempt (transient
// incidents) is discarded and re-run while the retry budget lasts.
func TestRetryDegraded(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	var calls atomic.Int64
	job := customJob("degraded", func(ctx context.Context, _ *gpu.Pool) (flow.Result, error) {
		if calls.Add(1) == 1 {
			return flow.Result{AIG: testAIG(1), Record: flow.Record{Incidents: []flow.Incident{{
				Index: 0, Command: "rw", Stage: "launch", Kernel: "rewrite/evaluate",
				Action: "retried-sequential", Class: flow.ClassTransient,
			}}}}, nil
		}
		return flow.Result{AIG: testAIG(1)}, nil
	})
	pol := Policy{Retries: 2}
	res, _ := runSupervised(context.Background(), pool, []Job{job}, Options{Policy: pol})
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if res[0].Attempts != 2 {
		t.Errorf("Attempts = %d, want 2 (degraded attempt discarded)", res[0].Attempts)
	}
	// The first attempt's incidents stay on the record, attempt-stamped.
	if len(res[0].Incidents) != 1 || res[0].Incidents[0].Attempt != 1 {
		t.Errorf("incident history lost: %+v", res[0].Incidents)
	}
	if res[0].Incidents[0].Time.IsZero() {
		t.Errorf("incident not timestamped")
	}
}

// TestFaultPlanCarryOver checks that a supervised flow job's fault plans
// carry fire-progress across attempts: a plan that fired in attempt 1 does
// not fire again in attempt 2, so the retry succeeds cleanly.
func TestFaultPlanCarryOver(t *testing.T) {
	pool := gpu.NewPool(2)
	defer pool.Close()
	job := Job{
		Name:   "faulted",
		AIG:    testAIG(7),
		Script: "rw",
		Config: flow.Config{Parallel: true},
		FaultPlans: []gpu.FaultPlan{
			{Kernel: "rewrite/evaluate", Kind: gpu.FaultPanic},
		},
	}
	pol := Policy{Retries: 2}
	res, m := runSupervised(context.Background(), pool, []Job{job}, Options{Policy: pol})
	if res[0].Err != nil {
		t.Fatalf("supervised flow job failed: %v", res[0].Err)
	}
	if res[0].Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2 (degraded then clean)", res[0].Attempts)
	}
	// Attempt 1 contains the fault as a degraded incident; attempt 2 must
	// run clean because the plan already fired.
	for _, inc := range res[0].Incidents {
		if inc.Attempt != 1 {
			t.Errorf("incident on attempt %d, want all on attempt 1: %+v", inc.Attempt, inc)
		}
	}
	if m.Finished != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestBackoffShape pins the exponential-with-jitter schedule: doubling from
// backoffBase, capped at backoffCap, jitter within ±50%, deterministic per
// (job, attempt) and different for two jobs at the same attempt.
func TestBackoffShape(t *testing.T) {
	capped := false
	for attempt := 1; attempt <= 8; attempt++ {
		d := backoffFor("job", attempt)
		base := backoffBase << (attempt - 1)
		if base > backoffCap {
			base = backoffCap
			capped = true
		}
		lo, hi := base/2, base+base/2
		if d < lo || d > hi {
			t.Errorf("attempt %d: backoff %v outside [%v, %v]", attempt, d, lo, hi)
		}
		if d != backoffFor("job", attempt) {
			t.Errorf("attempt %d: backoff not deterministic", attempt)
		}
		// Jobs that fail together must not retry together: the jitter is
		// seeded by the job name too.
		if other := backoffFor("other-job", attempt); other == d {
			t.Errorf("attempt %d: jobs %q and %q both back off %v", attempt, "job", "other-job", d)
		}
	}
	if !capped {
		t.Errorf("cap never reached in 8 attempts")
	}
}

// TestConcurrentIncidentAppendStress hammers one shared journal from many
// concurrently supervised jobs that all contain an injected kernel fault:
// every incident must come back Attempt- and Time-stamped, every journal
// entry must land intact with a unique sequence number, and the run must be
// clean under -race. This is the concurrency contract a batch of jobs relies
// on when their attempts journal incidents at once.
func TestConcurrentIncidentAppendStress(t *testing.T) {
	const jobsN = 16
	pool := gpu.NewPool(4)
	defer pool.Close()
	sink, entries := collect()
	jobs := make([]Job, jobsN)
	for i := range jobs {
		jobs[i] = Job{
			Name:   fmt.Sprintf("stress%d", i),
			AIG:    testAIG(int64(i + 1)),
			Script: "rw",
			Config: flow.Config{Parallel: true},
			FaultPlans: []gpu.FaultPlan{
				{Kernel: "rewrite/evaluate", Kind: gpu.FaultPanic},
			},
		}
	}
	res, m := runSupervised(context.Background(), pool, jobs,
		Options{MaxConcurrentJobs: jobsN, OnEvent: sink})
	total := 0
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("job %d: %v", i, r.Err)
		}
		if len(r.Incidents) == 0 {
			t.Fatalf("job %d: fault was not contained as an incident", i)
		}
		for _, inc := range r.Incidents {
			if inc.Attempt != 1 {
				t.Errorf("job %d: incident Attempt = %d, want 1", i, inc.Attempt)
			}
			if inc.Time.IsZero() {
				t.Errorf("job %d: incident Time not stamped", i)
			}
		}
		total += len(r.Incidents)
	}
	if m.Finished != jobsN {
		t.Errorf("metrics = %+v, want %d finished", m, jobsN)
	}
	seen := map[int64]bool{}
	logged := 0
	for _, e := range *entries {
		if seen[e.Seq] {
			t.Fatalf("duplicate journal seq %d", e.Seq)
		}
		seen[e.Seq] = true
		if e.Event == EventIncident {
			logged++
			if e.Incident == nil || e.Incident.Time.IsZero() {
				t.Errorf("journaled incident entry missing stamped incident: %+v", e)
			}
		}
	}
	if logged != total {
		t.Errorf("journal has %d incident entries, results carried %d incidents", logged, total)
	}
}
