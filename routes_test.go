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
// The profile and modeled fields of the parallel rows were re-pinned when the
// flow stopped running a cleanup pass after rw, rwz and rs; every output
// digest stayed. The digests of 13 rows, and the modeled time of the
// multiplier device rows, were re-pinned when Compact began keeping the ids
// of a canonical network with nothing dangling and flow.Run began rehashing
// an input that is not Clean. The profile and modeled fields of the parallel
// rows that run rf or rfz were re-pinned when the parallel replacement
// stopped sharing through its own hash table (two launches fewer per pass);
// every output digest stayed.
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
	"deep/levels":                         "eec4e606dc55e2034a48541057c8874eeea6ce0ac7bf3fd63c1dab1308b66a18 timings=0 events=[deep attempt,done]",
	"mem_ctrl/par/b-rw-rfz":               "cf7f578b121f6027004db7de11ce412397248c4cbcdd8fd18ba5845fa5ae97bc 527bf5a43243e2e3 14710976 timings=3 events=[mem_ctrl attempt,done]",
	"mem_ctrl/par/b-rw-rfz/fault":         "82944a252e523c40d4b238d1abd4c08015b1911ad3e0a6406ff30f64f428552d 89093206f16b5066 timings=3 {command 2 (rfz): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[mem_ctrl attempt,incident,done]",
	"mem_ctrl/par/b-rw-rfz/fault+retry":   "cf7f578b121f6027004db7de11ce412397248c4cbcdd8fd18ba5845fa5ae97bc 527bf5a43243e2e3 timings=3 {command 2 (rfz): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[mem_ctrl attempt,incident,retry,attempt,done]",
	"mem_ctrl/par/resyn2":                 "5187be72936e6ce32bc3cf9baa3a6e7c17741ca9b89641cc85eef4ab251e2c27 3ba9e71151f946bc 45893486 timings=10 events=[mem_ctrl attempt,done]",
	"mem_ctrl/par/resyn2/fault":           "8c6cac6d31f0ef303b7aac31602e462e0fcd9bfa7d2ef97cb96a4a990c00247b aa5a83e25750d68b timings=10 {command 2 (rf): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[mem_ctrl attempt,incident,done]",
	"mem_ctrl/par/resyn2/fault+retry":     "5187be72936e6ce32bc3cf9baa3a6e7c17741ca9b89641cc85eef4ab251e2c27 3ba9e71151f946bc timings=10 {command 2 (rf): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[mem_ctrl attempt,incident,retry,attempt,done]",
	"mem_ctrl/seq/b-rw-rfz":               "5a22e1f5aabdf831f67c310a8e9139767ba60a2617532bb36b00de6205af2a97 timings=3 events=[mem_ctrl attempt,done]",
	"mem_ctrl/seq/resyn2":                 "5b15b6c05a86ef36fd6e8040e16d98571c58a81d4a25f0b8e56a89a18abba52c timings=10 events=[mem_ctrl attempt,done]",
	"multiplier/par/b-rw-rfz":             "c17637e5f3f3e7d1b93ad68a8a90fe2c5af12935c96d5af13a8ec80c9da2abbe f23501dccb76793e 55831950 timings=3 events=[multiplier attempt,done]",
	"multiplier/par/b-rw-rfz/fault":       "61ce1eaddbfd7f2e1eddaf3989f11bc0c3761f8a7c04af8b424463c337e548fc f3ba2431ed020b08 timings=3 {command 2 (rfz): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[multiplier attempt,incident,done]",
	"multiplier/par/b-rw-rfz/fault+retry": "c17637e5f3f3e7d1b93ad68a8a90fe2c5af12935c96d5af13a8ec80c9da2abbe f23501dccb76793e timings=3 {command 2 (rfz): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[multiplier attempt,incident,retry,attempt,done]",
	"multiplier/par/resyn2":               "c17637e5f3f3e7d1b93ad68a8a90fe2c5af12935c96d5af13a8ec80c9da2abbe b7c86b6c89026fd9 178925520 timings=10 events=[multiplier attempt,done]",
	"multiplier/par/resyn2/fault":         "c17637e5f3f3e7d1b93ad68a8a90fe2c5af12935c96d5af13a8ec80c9da2abbe 2d20b716ea7a59d0 timings=10 {command 2 (rf): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[multiplier attempt,incident,done]",
	"multiplier/par/resyn2/fault+retry":   "c17637e5f3f3e7d1b93ad68a8a90fe2c5af12935c96d5af13a8ec80c9da2abbe b7c86b6c89026fd9 timings=10 {command 2 (rf): launch failure, retried-sequential: gpu: kernel \"refactor/resynth\": thread 0 panicked: gpu: injected fault: kernel \"refactor/resynth\" class=transient kernel=refactor/resynth} events=[multiplier attempt,incident,retry,attempt,done]",
	"multiplier/seq/b-rw-rfz":             "61ce1eaddbfd7f2e1eddaf3989f11bc0c3761f8a7c04af8b424463c337e548fc timings=3 events=[multiplier attempt,done]",
	"multiplier/seq/resyn2":               "fb2820006372c8c4d8e55f77cf0af6442cd9c6e924ce730d80150c79a6b5b5fa timings=10 events=[multiplier attempt,done]",
}
