package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"time"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/cec"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/sched"
)

// suiteCases returns the benchmark list honoring -quick.
func suiteCases() []bench.Case {
	cases := bench.Suite(*scaleFlag)
	if !*quickFlag {
		return cases
	}
	keep := map[string]bool{"twenty": true, "div": true, "multiplier": true, "voter": true, "ac97_ctrl": true}
	var out []bench.Case
	for _, c := range cases {
		if keep[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// pool is the shared host worker budget behind every experiment; main
// creates it after flag parsing and closes it on exit. All devices — the
// direct leases below and those of engine-scheduled jobs — draw their
// kernel-launch parallelism from this one bounded pool.
var pool *sched.Pool

// device leases a fresh simulated device from the shared pool. Stats and
// profile are per-lease, so concurrent callers do not mix measurements.
func device() *gpu.Device { return pool.Lease(0) }

// verify optionally equivalence-checks an optimization result.
func verify(name string, in, out *aig.AIG) {
	if !*cecFlag {
		return
	}
	res, err := cec.Check(in, out, cec.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "  CEC %-14s inconclusive: %v\n", name, err)
		return
	}
	if !res.Equivalent {
		fmt.Fprintf(os.Stderr, "  CEC %-14s FAILED (output %d)\n", name, res.FailingOutput)
		os.Exit(1)
	}
}

// reportIncidents surfaces contained failures of a guarded run: experiment
// numbers from a degraded run are still valid results, but the reader must
// know a command fell back or was skipped.
func reportIncidents(name string, incs []flow.Incident) {
	for _, inc := range incs {
		fmt.Fprintf(os.Stderr, "  incident %-14s %s\n", name, inc)
	}
}

// runSeqScript times a sequential (ABC-style) script.
func runSeqScript(a *aig.AIG, script string) (*aig.AIG, time.Duration) {
	start := time.Now()
	res, err := flow.Run(context.Background(), a, script, flow.Config{})
	if err != nil {
		panic(err)
	}
	reportIncidents(a.Name, res.Incidents)
	return res.AIG, time.Since(start)
}

// parJob describes one parallel script run for the batch engine.
type parJob struct {
	a                   *aig.AIG
	script              string
	rwzPasses, rfPasses int
}

// runParJobs runs parallel scripts through the scheduling engine over the
// shared pool — all jobs at once when concurrent, one at a time otherwise
// (timing-sensitive experiments need exclusive use of the worker budget) —
// and returns the per-job results in submission order.
func runParJobs(jobs []parJob, concurrent bool) []sched.Result {
	sjobs := make([]sched.Job, len(jobs))
	for i, j := range jobs {
		sjobs[i] = sched.Job{
			Name:   j.a.Name,
			AIG:    j.a,
			Script: j.script,
			Config: flow.Config{Parallel: true, RwzPasses: j.rwzPasses, RfPasses: j.rfPasses},
		}
	}
	maxConcurrent := 0
	if !concurrent {
		maxConcurrent = 1
	}
	results, _ := sched.RunJobs(context.Background(), pool, sjobs, maxConcurrent)
	for _, r := range results {
		if r.Err != nil {
			panic(r.Err)
		}
		reportIncidents(r.Name, r.Incidents)
		if *profileFlag {
			fmt.Printf("  per-kernel device profile (%s, %d workers):\n", r.Name, pool.Workers())
			fmt.Print(gpu.FormatProfile(r.Profile))
		}
	}
	return results
}

// runParScript runs one parallel script on a leased device, returning the
// result, host wall time, modeled device time and the timings.
func runParScript(a *aig.AIG, script string, rwzPasses, rfPasses int) (*aig.AIG, time.Duration, time.Duration, []flow.CommandTiming) {
	r := runParJobs([]parJob{{a, script, rwzPasses, rfPasses}}, false)[0]
	return r.AIG, r.Wall, r.Modeled, r.Timings
}

// runParCommand runs passes of one vocabulary command as a single algorithm
// on a freshly leased device, the cleanup pass included when the command has
// one (flow.RunCommand: unguarded, so an engine failure ends the experiment).
func runParCommand(a *aig.AIG, name string, passes int) flow.Result {
	cmd, err := flow.Lookup(name)
	if err != nil {
		panic(err)
	}
	res, err := flow.RunCommand(context.Background(), a, cmd, passes, flow.Config{Parallel: true, Device: device()})
	if err != nil {
		panic(err)
	}
	return res
}

// geo accumulates a geometric mean.
type geo struct {
	logSum float64
	n      int
}

func (g *geo) add(ratio float64) {
	if ratio > 0 {
		g.logSum += math.Log(ratio)
		g.n++
	}
}

func (g *geo) mean() float64 {
	if g.n == 0 {
		return 1
	}
	return math.Exp(g.logSum / float64(g.n))
}

// fmtDur prints a duration in seconds with millisecond resolution, matching
// the paper's tables.
func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 1
	}
	return float64(num) / float64(den)
}
