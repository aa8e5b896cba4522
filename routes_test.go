package aigre_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"aigre"
	"aigre/internal/bench"
	"aigre/internal/gpu"
)

// jobRoute is one way into the engine. observe marks the routes that take
// BatchOptions and so have a supervision policy and an event stream;
// Network.Run has neither. Every route reports the job as an aigre.Result.
type jobRoute struct {
	name    string
	observe bool
	run     func(ctx context.Context, job aigre.Batch, bopts aigre.BatchOptions) (aigre.Result, error)
}

var jobRoutes = []jobRoute{
	{name: "Network.Run", run: func(ctx context.Context, job aigre.Batch, _ aigre.BatchOptions) (aigre.Result, error) {
		return job.AIG.Run(ctx, job.Script, job.Options)
	}},
	{name: "RunBatch", observe: true, run: func(ctx context.Context, job aigre.Batch, bopts aigre.BatchOptions) (aigre.Result, error) {
		rs, _, err := aigre.RunBatch(ctx, []aigre.Batch{job}, bopts)
		if err != nil {
			return aigre.Result{}, err
		}
		return rs[0], rs[0].Err
	}},
	{name: "Engine.Run", observe: true, run: func(ctx context.Context, job aigre.Batch, bopts aigre.BatchOptions) (aigre.Result, error) {
		e, err := aigre.NewEngine(ctx, bopts)
		if err != nil {
			return aigre.Result{}, err
		}
		defer e.Close()
		r, err := e.Run(ctx, job)
		if err != nil {
			return aigre.Result{}, err
		}
		return r, r.Err
	}},
}

// through runs job over one route and renders what TestJobRoutes pins: output
// SHA-256, for a device run the profile-row digest and the modeled
// nanoseconds, the number of command timings, every incident, and each job's
// event sequence when the route has a stream.
func through(t *testing.T, rt jobRoute, job aigre.Batch, pol aigre.Policy) string {
	t.Helper()
	var mu sync.Mutex
	events := map[string][]string{} // job -> its events in order
	bopts := aigre.BatchOptions{Workers: job.Options.Workers, Policy: pol,
		OnEvent: func(ev aigre.JobEvent) {
			mu.Lock()
			events[ev.Job] = append(events[ev.Job], ev.Event)
			mu.Unlock()
		}}
	rep, err := rt.run(context.Background(), job, bopts)
	if err != nil {
		t.Fatalf("%s: %v", rt.name, err)
	}
	got := outputDigest(t, rep.AIG)
	if rep.Profile != nil {
		got += " " + profileDigest(rep.Profile)
		// A degraded command models its sequential retry by the wall clock.
		if len(rep.Incidents) == 0 {
			got += fmt.Sprintf(" %d", rep.Modeled.Nanoseconds())
		}
	}
	got += fmt.Sprintf(" timings=%d", len(rep.Timings))
	for _, inc := range rep.Incidents {
		got += fmt.Sprintf(" {%s class=%s kernel=%s}", inc, inc.Class, inc.Kernel)
	}
	if rt.observe {
		// Per job in name order.
		got += " events="
		names := make([]string, 0, len(events))
		for name := range events {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			got += fmt.Sprintf("[%s %s]", name, strings.Join(events[name], ","))
		}
	}
	return got
}

// TestJobRoutes drives one job through every entry point that reaches the
// engine — Network.Run, a one-job RunBatch and Engine.Run — and
// pins what each returns. The goldens were recorded at the commit before the
// routes were joined under sched.(*Engine).Do (1564810, where Engine.Run did
// not exist yet): every column must agree with every other and with them.
func TestJobRoutes(t *testing.T) {
	const fault = "refactor/resynth:1:panic"
	plan, err := gpu.ParseFaultPlan(fault)
	if err != nil {
		t.Fatal(err)
	}
	type routeCase struct {
		key string
		job aigre.Batch
	}
	var cases []routeCase
	for _, name := range []string{"mem_ctrl", "multiplier"} {
		for _, parallel := range []bool{false, true} {
			for _, script := range []string{"b; rw; rfz", aigre.ScriptResyn2} {
				mode, sname := "seq", "resyn2"
				if parallel {
					mode = "par"
				}
				if script != aigre.ScriptResyn2 {
					sname = "b-rw-rfz"
				}
				cases = append(cases, routeCase{
					key: fmt.Sprintf("%s/%s/%s", name, mode, sname),
					job: aigre.Batch{Name: name, AIG: suiteCase(t, name), Script: script,
						Options: aigre.Options{Parallel: parallel, Workers: 1}},
				})
			}
		}
	}
	deep := aigre.FromInternal(bench.DeepNarrow(8, 500))
	for _, mode := range []aigre.PartitionMode{aigre.PartitionCones, aigre.PartitionLevels} {
		cases = append(cases, routeCase{
			key: fmt.Sprintf("deep/%v", mode),
			job: aigre.Batch{Name: "deep", AIG: deep, Script: "b; rw", Options: aigre.Options{Workers: 2,
				Partition: aigre.PartitionOptions{Mode: mode, TargetSize: 2000}}},
		})
	}

	retry := aigre.Policy{Retries: 1}
	for _, c := range cases {
		for _, rt := range jobRoutes {
			check := func(variant string, job aigre.Batch, pol aigre.Policy) {
				t.Helper()
				job.Options.Cache = aigre.NewCache()
				want, ok := routeGoldens[c.key+variant]
				if !ok {
					t.Fatalf("no golden for %q", c.key+variant)
				}
				// Network.Run has no event stream: its golden is the prefix.
				if !rt.observe {
					want, _, _ = strings.Cut(want, " events=")
				}
				if got := through(t, rt, job, pol); got != want {
					t.Errorf("%s via %s:\n got %q\nwant %q", c.key+variant, rt.name, got, want)
				}
			}
			check("", c.job, aigre.Policy{})
			if !c.job.Options.Parallel {
				continue // fault plans fire on a device lease only
			}
			// One contained kernel panic: the same incident on every route, and
			// under a retry policy (the routes that take one) a clean second
			// attempt, because the fired plan is carried across attempts.
			faulted := c.job
			faulted.Options.FaultPlans = []gpu.FaultPlan{plan}
			check("/fault", faulted, aigre.Policy{})
			if rt.observe {
				check("/fault+retry", faulted, retry)
			}
		}
	}
}

var routeGoldens = map[string]string{
	"deep/cones":                          "2a6a1569a3a0c21896f72809868a35e28fcc63a47b47d77e7269da73971d582a timings=0 events=[deep attempt,done]",
	"deep/levels":                         "9de661200300069970a24fe0fdcacb8bf5aab6c2bceb7e8128c0207a2e88b659 timings=0 events=[deep attempt,done]",
	"mem_ctrl/par/b-rw-rfz":               "92057d211e0e851c0a8017fb96dc705286e7ba69c59a30322a4e172a225a8876 4ce3d7f08c027124 16302726 timings=3 events=[mem_ctrl attempt,done]",
	"mem_ctrl/par/b-rw-rfz/fault":         "82944a252e523c40d4b238d1abd4c08015b1911ad3e0a6406ff30f64f428552d 41e540729f845de8 timings=3 {command 2 (rfz): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[mem_ctrl attempt,incident,done]",
	"mem_ctrl/par/b-rw-rfz/fault+retry":   "92057d211e0e851c0a8017fb96dc705286e7ba69c59a30322a4e172a225a8876 4ce3d7f08c027124 timings=3 {command 2 (rfz): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[mem_ctrl attempt,incident,retry,attempt,done]",
	"mem_ctrl/par/resyn2":                 "8092faea071090a2127b06328622f724009020004861fa041d9b7108a27dd6e6 50f23bd48204c044 51539406 timings=10 events=[mem_ctrl attempt,done]",
	"mem_ctrl/par/resyn2/fault":           "fad6ade025aa56306b6a59903eec24129215d880176c0326e98c5b5c9a9e48b5 63df95e33a528c4e timings=10 {command 2 (rf): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[mem_ctrl attempt,incident,done]",
	"mem_ctrl/par/resyn2/fault+retry":     "8092faea071090a2127b06328622f724009020004861fa041d9b7108a27dd6e6 50f23bd48204c044 timings=10 {command 2 (rf): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[mem_ctrl attempt,incident,retry,attempt,done]",
	"mem_ctrl/seq/b-rw-rfz":               "5a22e1f5aabdf831f67c310a8e9139767ba60a2617532bb36b00de6205af2a97 timings=3 events=[mem_ctrl attempt,done]",
	"mem_ctrl/seq/resyn2":                 "30c2807fb3fc3ffd496289e35e55aacf6c1c7d773a19f0e58631ba0220cc3055 timings=10 events=[mem_ctrl attempt,done]",
	"multiplier/par/b-rw-rfz":             "ee695a667a496ee794458b2b926fbd503ddb64509a80af439a0b72ac7575786d a942eff403ec5265 64991160 timings=3 events=[multiplier attempt,done]",
	"multiplier/par/b-rw-rfz/fault":       "61ce1eaddbfd7f2e1eddaf3989f11bc0c3761f8a7c04af8b424463c337e548fc 0a4f45b1a466b28f timings=3 {command 2 (rfz): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[multiplier attempt,incident,done]",
	"multiplier/par/b-rw-rfz/fault+retry": "ee695a667a496ee794458b2b926fbd503ddb64509a80af439a0b72ac7575786d a942eff403ec5265 timings=3 {command 2 (rfz): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[multiplier attempt,incident,retry,attempt,done]",
	"multiplier/par/resyn2":               "ee695a667a496ee794458b2b926fbd503ddb64509a80af439a0b72ac7575786d dbe90956a6af55da 210126720 timings=10 events=[multiplier attempt,done]",
	"multiplier/par/resyn2/fault":         "ee695a667a496ee794458b2b926fbd503ddb64509a80af439a0b72ac7575786d b4f3526eea32acb3 timings=10 {command 2 (rf): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[multiplier attempt,incident,done]",
	"multiplier/par/resyn2/fault+retry":   "ee695a667a496ee794458b2b926fbd503ddb64509a80af439a0b72ac7575786d dbe90956a6af55da timings=10 {command 2 (rf): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[multiplier attempt,incident,retry,attempt,done]",
	"multiplier/seq/b-rw-rfz":             "61ce1eaddbfd7f2e1eddaf3989f11bc0c3761f8a7c04af8b424463c337e548fc timings=3 events=[multiplier attempt,done]",
	"multiplier/seq/resyn2":               "e100d288d86ffb928cddd9acd598500ad044220b8f113c1dbea69fc2e275613a timings=10 events=[multiplier attempt,done]",
}
