package sched

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aigre/internal/flow"
	"aigre/internal/gpu"
)

// outcome is one supervision event reduced to what the outcome table pins.
type outcome struct{ Event, Class string }

// recordEvents installs a collector of the engine's supervision events into
// opts and returns a snapshot function. onEvent, when non-nil, sees each event
// as it is emitted.
func recordEvents(opts *Options, onEvent func(event string)) func() []outcome {
	var mu sync.Mutex
	var got []outcome
	opts.OnEvent = func(e Event) {
		mu.Lock()
		got = append(got, outcome{e.Event, e.Class})
		mu.Unlock()
		if onEvent != nil {
			onEvent(e.Event)
		}
	}
	return func() []outcome {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(got)
	}
}

// TestSupervisionOutcomes pins every way an attempt can end: the full event
// sequence (with each event's class) and the result's outcome fields, per
// policy and failure shape.
func TestSupervisionOutcomes(t *testing.T) {
	launchErr := &gpu.LaunchError{Kernel: "rewrite/evaluate", Value: "boom"}
	degraded := flow.Result{AIG: testAIG(1), Record: flow.Record{Incidents: []flow.Incident{{
		Command: "rw", Stage: "launch", Kernel: "rewrite/evaluate",
		Action: "retried-sequential", Class: flow.ClassTransient,
	}}}}
	// failFirst fails the first n calls with err, then succeeds cleanly.
	failFirst := func(n int64, err error) func(context.Context, int64) (flow.Result, error) {
		return func(_ context.Context, call int64) (flow.Result, error) {
			if call <= n {
				return flow.Result{}, err
			}
			return flow.Result{AIG: testAIG(1)}, nil
		}
	}
	hang := func(ctx context.Context, _ int64) (flow.Result, error) {
		<-ctx.Done()
		return flow.Result{}, ctx.Err()
	}
	ev := func(event, class string) outcome { return outcome{event, class} }

	type flags struct {
		TimedOut, Cancelled, Quarantined bool
		Attempts, Preemptions            int
	}
	cases := []struct {
		name string
		pol  Policy
		run  func(ctx context.Context, call int64) (flow.Result, error)
		// deadline, when positive, is the outer (batch) deadline; cancelOn,
		// when set, cancels the outer context as that event is emitted.
		deadline time.Duration
		cancelOn string
		want     []outcome
		flags    flags
	}{
		{name: "clean done", run: failFirst(0, nil),
			want:  []outcome{ev("attempt", ""), ev("done", "")},
			flags: flags{Attempts: 1}},
		{name: "transient retried to done", pol: Policy{Retries: 2}, run: failFirst(1, launchErr),
			want: []outcome{ev("attempt", ""), ev("retry", "transient"),
				ev("attempt", ""), ev("done", "")},
			flags: flags{Attempts: 2}},
		{name: "degraded retried", pol: Policy{Retries: 2},
			run: func(_ context.Context, call int64) (flow.Result, error) {
				if call == 1 {
					return degraded, nil
				}
				return flow.Result{AIG: testAIG(1)}, nil
			},
			want: []outcome{ev("attempt", ""), ev("incident", "transient"), ev("retry", "transient"),
				ev("attempt", ""), ev("done", "")},
			flags: flags{Attempts: 2}},
		{name: "degraded without budget is done",
			run:   func(context.Context, int64) (flow.Result, error) { return degraded, nil },
			want:  []outcome{ev("attempt", ""), ev("incident", "transient"), ev("done", "")},
			flags: flags{Attempts: 1}},
		{name: "permanent fails", pol: Policy{Retries: 2}, run: failFirst(9, errors.New("equivalence refuted")),
			want:  []outcome{ev("attempt", ""), ev("fail", "permanent")},
			flags: flags{Attempts: 1}},
		{name: "transient without budget fails", run: failFirst(9, launchErr),
			want:  []outcome{ev("attempt", ""), ev("fail", "transient")},
			flags: flags{Attempts: 1}},
		{name: "transient budget spent quarantines", pol: Policy{Retries: 2}, run: failFirst(9, launchErr),
			want: []outcome{ev("attempt", ""), ev("retry", "transient"), ev("attempt", ""), ev("retry", "transient"),
				ev("attempt", ""), ev("quarantine", "transient")},
			flags: flags{Quarantined: true, Attempts: 3}},
		{name: "own deadline", pol: Policy{JobTimeout: 10 * time.Millisecond}, run: hang,
			want:  []outcome{ev("attempt", ""), ev("timeout", "timeout")},
			flags: flags{TimedOut: true, Attempts: 1}},
		{name: "own deadline retried then quarantined", pol: Policy{JobTimeout: 10 * time.Millisecond, Retries: 1}, run: hang,
			want: []outcome{ev("attempt", ""), ev("timeout", "timeout"), ev("retry", "timeout"),
				ev("attempt", ""), ev("timeout", "timeout"), ev("quarantine", "timeout")},
			flags: flags{TimedOut: true, Quarantined: true, Attempts: 2}},
		{name: "watchdog stuck", pol: Policy{StuckTimeout: 20 * time.Millisecond}, run: hang,
			want:  []outcome{ev("attempt", ""), ev("preempt", "stuck"), ev("quarantine", "stuck")},
			flags: flags{Quarantined: true, Attempts: 1, Preemptions: 1}},
		// An outer shutdown is the batch's, not the attempt's failure: its
		// outcome carries no class, whether it lands mid-attempt or in a
		// backoff.
		{name: "outer deadline", run: hang, deadline: 20 * time.Millisecond,
			want:  []outcome{ev("attempt", ""), ev("timeout", "")},
			flags: flags{TimedOut: true, Attempts: 1}},
		{name: "external cancel", run: hang, cancelOn: "attempt",
			want:  []outcome{ev("attempt", ""), ev("cancel", "")},
			flags: flags{Cancelled: true, Attempts: 1}},
		{name: "cancel during backoff", pol: Policy{Retries: 2}, run: failFirst(9, launchErr), cancelOn: "retry",
			want:  []outcome{ev("attempt", ""), ev("retry", "transient"), ev("cancel", "")},
			flags: flags{Cancelled: true, Attempts: 1}},
	}
	pool := gpu.NewPool(2)
	defer pool.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if c.deadline > 0 {
				ctx, cancel = context.WithTimeout(ctx, c.deadline)
				defer cancel()
			}
			opts := Options{Policy: c.pol}
			events := recordEvents(&opts, func(event string) {
				if event == c.cancelOn {
					cancel()
				}
			})
			var calls atomic.Int64
			job := customJob("job", func(ctx context.Context, _ *gpu.Pool) (flow.Result, error) {
				return c.run(ctx, calls.Add(1))
			})
			res, _ := runSupervised(ctx, pool, []Job{job}, opts)
			r := res[0]
			if got := events(); !slices.Equal(got, c.want) {
				t.Errorf("events %v, want %v", got, c.want)
			}
			got := flags{r.TimedOut, r.Cancelled, r.Quarantined, r.Attempts, r.Preemptions}
			if got != c.flags {
				t.Errorf("outcome %+v, want %+v (err %v)", got, c.flags, r.Err)
			}
			if done := c.want[len(c.want)-1].Event == "done"; done != (r.Err == nil) {
				t.Errorf("Err = %v with final event %q", r.Err, c.want[len(c.want)-1].Event)
			}
		})
	}
}
