// Command aigre is a small ABC-like driver: it reads an AIGER file, runs an
// optimization script in sequential (ABC-style) or parallel (GPU-model)
// mode, prints statistics, and optionally writes the result and checks
// equivalence. With -batch it instead runs a whole manifest of jobs
// concurrently over one shared worker budget.
//
// Usage:
//
//	aigre -in design.aig -script "b; rw; rf; b" -parallel -out opt.aig
//	aigre -in design.aig -resyn2 -cec
//	aigre -in design.aig -script "rf; rf" -parallel   # the paper's GPU rf x2
//	aigre -batch jobs.txt -parallel -workers 8 -outdir opt/ -report report.json
//	aigre -batch jobs.txt -parallel -job-timeout 1m -retries 2 -journal run.jsonl
//
// Both modes run their jobs on one engine under one supervision policy:
// -job-timeout, -retries, -stuck-timeout and -journal mean the same thing for
// the single -in run as for every job of a -batch manifest. The script is the
// whole program: no flag repeats or rewrites a command. A negative count,
// size or duration is a usage error.
//
// Exit codes (for automation):
//
//	0  clean: every run/job completed without incidents
//	1  hard error: I/O, parse, or equivalence-check failure
//	2  usage error
//	3  degraded: all jobs completed, but contained incidents were recorded
//	4  job casualty: at least one batch job failed, timed out, was
//	   cancelled, or was quarantined by the supervisor (a single -in run
//	   that ends that way is a hard error, 1)
//
// Signals: the first SIGINT/SIGTERM cancels the run gracefully — in-flight
// work stops at the next kernel-launch boundary, batch jobs report
// Cancelled, and the usual exit-code taxonomy applies. A second signal
// exits immediately with code 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"aigre"
	"aigre/internal/flow"
	"aigre/internal/gpu"
)

func main() {
	var (
		in       = flag.String("in", "", "input AIGER file (required unless -batch)")
		batch    = flag.String("batch", "", "batch manifest file: one \"input.aig [@priority] script\" per line")
		outdir   = flag.String("outdir", "", "directory for batch outputs (default: none written)")
		report   = flag.String("report", "", "write the batch report as JSON to this file (\"-\" = stdout)")
		maxJobs  = flag.Int("max-jobs", 0, "max concurrently running batch jobs (0 = workers)")
		shCache  = flag.Bool("shared-cache", false, "share one resynthesis cache across all batch jobs (batch mode)")
		timeout  = flag.Duration("timeout", 0, "overall run deadline, e.g. 30s (0 = none)")
		jobTmo   = flag.Duration("job-timeout", 0, "per-job attempt deadline, e.g. 10s (0 = none)")
		retries  = flag.Int("retries", 0, "retry budget per job for transient faults, timeouts, and stuck preemptions")
		stuckTmo = flag.Duration("stuck-timeout", 0, "watchdog threshold: preempt a job whose kernel heartbeat stalls this long (0 = off)")
		journalF = flag.String("journal", "", "append every supervision event (attempts, incidents, retries, quarantines) to this JSONL file")
		out      = flag.String("out", "", "output AIGER file (optional; .aag = ASCII)")
		script   = flag.String("script", "", "optimization script, e.g. \"b; rw; rfz\"")
		resyn2   = flag.Bool("resyn2", false, "run the resyn2 sequence")
		rfResyn  = flag.Bool("rf_resyn", false, "run the rf_resyn sequence")
		parallel = flag.Bool("parallel", false, "use the parallel (GPU-model) algorithms")
		workers  = flag.Int("workers", 0, "worker goroutines for the simulated device (0 = GOMAXPROCS)")
		profile  = flag.Bool("profile", false, "print the per-kernel device profile (parallel mode)")
		profJSON = flag.String("profile-json", "", "write the profile report as JSON to this file (\"-\" = stdout)")
		partMode = flag.String("partition", "off", "partition-parallel optimization: off, cones, or levels")
		partSize = flag.Int("partition-size", 0, "partition size target in AND nodes (0 = 100000)")
		verify   = flag.Bool("verify", false, "full per-command equivalence gate during script runs (default: sampling gate)")
		inject   = flag.String("inject", "", "inject a deterministic fault: \"kernel-pattern:N:panic\", \"...:corrupt\", or \"...:stall\" (chaos testing, parallel mode)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		cecFlag  = flag.Bool("cec", false, "verify equivalence of the result against the input")
		cecWith  = flag.String("cec-with", "", "check equivalence of -in against this AIGER file and exit")
		verbose  = flag.Bool("v", false, "print per-command statistics")
	)
	flag.Parse()
	if err := nonNegative(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "aigre:", err)
		os.Exit(2)
	}
	pmode, err := aigre.ParsePartitionMode(*partMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// First SIGINT/SIGTERM cancels the run gracefully: in-flight work stops
	// at the next kernel-launch boundary and partial results are reported
	// (batch jobs come back Cancelled). A second signal exits immediately
	// with code 1.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		fmt.Fprintf(os.Stderr, "aigre: %s: cancelling (signal again to exit immediately)\n", s)
		cancel()
		s = <-sigs
		fmt.Fprintf(os.Stderr, "aigre: %s: immediate exit\n", s)
		os.Exit(1)
	}()
	// Profiles must be written on every exit path, and main exits through
	// os.Exit (which skips defers) — route all exits through finishProfiles.
	fatal(startProfiles(*cpuProf, *memProf))
	// -workers sizes the engine's pool (BatchOptions.Workers), which every job
	// of either mode leases from.
	opts := aigre.Options{
		Parallel:  *parallel,
		Verify:    *verify,
		Partition: aigre.PartitionOptions{Mode: pmode, TargetSize: *partSize},
	}
	bopts := aigre.BatchOptions{
		Workers:           *workers,
		MaxConcurrentJobs: *maxJobs,
		JournalPath:       *journalF,
		Policy: aigre.Policy{
			JobTimeout:   *jobTmo,
			Retries:      *retries,
			StuckTimeout: *stuckTmo,
		},
	}
	if *batch != "" {
		if *inject != "" {
			// Every job of the batch gets its own copy of the plan, so a
			// chaos run injects the fault fleet-wide, one firing per job.
			plan, err := gpu.ParseFaultPlan(*inject)
			if err != nil {
				fmt.Fprintln(os.Stderr, "aigre:", err)
				os.Exit(2)
			}
			opts.FaultPlans = []gpu.FaultPlan{plan}
		}
		if *shCache {
			bopts.SharedCache = aigre.NewCache()
		}
		exit(runBatch(ctx, *batch, *outdir, *report, bopts, opts))
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "aigre: -in is required (or -batch)")
		flag.Usage()
		os.Exit(2)
	}
	// With -profile-json - the JSON report owns stdout; status lines move to
	// stderr so the output stays pipeable into jq and friends.
	msg := os.Stdout
	if *profJSON == "-" {
		msg = os.Stderr
	}
	n, err := aigre.ReadFile(*in)
	fatal(err)
	fmt.Fprintln(msg, "input:  ", n.Stats())

	if *cecWith != "" {
		other, err := aigre.ReadFile(*cecWith)
		fatal(err)
		fmt.Fprintln(msg, "other:  ", other.Stats())
		eq, err := n.EquivalentTo(other)
		fatal(err)
		if !eq {
			fmt.Fprintln(msg, "cec:     NOT equivalent")
			exit(1)
		}
		fmt.Fprintln(msg, "cec:     equivalent")
		finishProfiles()
		return
	}

	s := *script
	switch {
	case *resyn2:
		s = flow.Resyn2
	case *rfResyn:
		s = flow.RfResyn
	case s == "":
		// statistics only
	}
	cur := n
	degraded := false
	if s != "" {
		_, err := flow.Parse(s) // here, for a diagnostic without the engine's job prefix
		fatal(err)
		if *inject != "" {
			plan, err := gpu.ParseFaultPlan(*inject)
			fatal(err)
			opts.FaultPlans = []gpu.FaultPlan{plan}
		}
		res, err := runSingle(ctx, n, s, bopts, opts)
		fatal(err)
		cur = res.AIG
		degraded = len(res.Incidents) > 0
		if *verbose {
			// dedup= is the share of modeled= that the command's Section
			// III-F kernels took, as its profile files it.
			for _, t := range res.Timings {
				fmt.Fprintf(msg, "  %-4s wall=%-12v modeled=%-12v dedup=%-12v and=%d lev=%d\n",
					t.Command, t.Wall, t.Modeled, flow.Breakdown([]flow.CommandTiming{t})["dedup"], t.NodesAfter, t.LevelsAfter)
			}
		}
		mode := "sequential"
		if *parallel {
			mode = "parallel"
		}
		fmt.Fprintf(msg, "script: %q (%s)  wall=%v modeled=%v\n", s, mode, res.Wall, res.Modeled)
		if p := res.Partition; p != nil {
			// shared= counts nodes held by more than one partition: 0 in both modes.
			fmt.Fprintf(msg, "partition: mode=%s parts=%d shared=%d conflicts=%d/%d rollbacks=%d rounds=%d\n",
				p.Mode, len(p.Parts), p.SharedNodes, p.ConflictsBroken, p.ConflictsFound, p.Rollbacks, p.StitchRounds)
			if *verbose {
				for _, ps := range p.Parts {
					span := fmt.Sprintf("po=%d", ps.POs)
					if p.Mode == "levels" {
						span = fmt.Sprintf("lev=%d..%d", ps.LevelLo, ps.LevelHi)
					}
					rolled := ""
					if ps.RolledBack {
						rolled = "  ROLLED BACK: " + ps.Note
					}
					fmt.Fprintf(msg, "  part %-3d %-12s and %7d -> %7d  conflicts=%-5d wall=%-12v queued=%v%s\n",
						ps.Index, span, ps.NodesIn, ps.NodesOut, ps.ConflictsBroken, ps.WallNS, ps.QueuedNS, rolled)
				}
			}
		}
		for _, inc := range res.Incidents {
			fmt.Fprintln(msg, "incident:", inc)
		}
		fmt.Fprintln(msg, "output: ", cur.Stats())
		if *profile {
			cs := res.CacheStats
			fmt.Fprintf(msg, "rcache:  hits=%d misses=%d (%.1f%%) npn-hits=%d npn-misses=%d evictions=%d entries=%d\n",
				cs.Hits, cs.Misses, 100*cs.HitRate(), cs.NpnHits, cs.NpnMisses, cs.Evictions, cs.Entries)
			if res.Profile == nil {
				fmt.Fprintln(msg, "profile: (no device profile; run with -parallel)")
			} else {
				fmt.Fprintln(msg, "\nper-kernel device profile:")
				fmt.Fprint(msg, gpu.FormatProfile(res.Profile))
			}
		}
		if *profJSON != "" {
			fatal(writeProfileJSON(*profJSON, mode, res))
		}
	}
	if *cecFlag && s != "" {
		eq, err := cur.EquivalentTo(n)
		fatal(err)
		if !eq {
			fmt.Fprintln(os.Stderr, "aigre: EQUIVALENCE CHECK FAILED")
			exit(1)
		}
		fmt.Fprintln(msg, "cec:     equivalent")
	}
	if *out != "" {
		fatal(cur.WriteFile(*out))
		fmt.Fprintln(msg, "wrote:  ", *out)
	}
	finishProfiles()
	if degraded {
		os.Exit(3)
	}
}

// nonNegative rejects a negative value of any numeric flag set on the
// command line: every count, size and duration of this command reads 0 as
// "default" or "none", and a negative one has no meaning.
func nonNegative(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		var neg bool
		switch v := f.Value.(flag.Getter).Get().(type) {
		case int:
			neg = v < 0
		case time.Duration:
			neg = v < 0
		}
		if neg && err == nil {
			err = fmt.Errorf("-%s must be >= 0 (got %s)", f.Name, f.Value)
		}
	})
	return err
}

// runSingle runs the -in network as the one job of an engine configured like
// a batch's — same pool, supervision policy and journal. An outcome a batch
// would count a casualty (failed, timed out, cancelled, quarantined) comes
// back as the error.
func runSingle(ctx context.Context, n *aigre.Network, script string, bopts aigre.BatchOptions, opts aigre.Options) (aigre.Result, error) {
	e, err := aigre.NewEngine(ctx, bopts)
	if err != nil {
		return aigre.Result{}, err
	}
	defer e.Close()
	res, err := e.Run(ctx, aigre.Batch{AIG: n, Script: script, Options: opts})
	if err != nil {
		return res, err
	}
	return res, res.Err
}

// profileReport is the JSON schema of -profile-json: the run's job record
// (as in a -report row: wall and modeled time, contained incidents, cache
// traffic, the per-kernel rows under "profile", the partition report of a
// -partition run) beside the mode and the per-command rows.
type profileReport struct {
	Mode string `json:"mode"`
	aigre.Result
	Commands []flow.CommandTiming `json:"commands"`
}

func writeProfileJSON(path, mode string, res aigre.Result) error {
	rep := profileReport{Mode: mode, Result: res, Commands: res.Timings}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigre:", err)
		exit(1)
	}
}

// Profiling state for -cpuprofile/-memprofile. main exits through os.Exit on
// most paths (which skips defers), so every such path goes through exit(),
// which flushes the profiles first.
var (
	cpuProfFile *os.File
	memProfPath string
)

func startProfiles(cpu, mem string) error {
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		cpuProfFile = f
	}
	memProfPath = mem
	return nil
}

func finishProfiles() {
	if cpuProfFile != nil {
		pprof.StopCPUProfile()
		cpuProfFile.Close()
		cpuProfFile = nil
	}
	if memProfPath != "" {
		path := memProfPath
		memProfPath = ""
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aigre:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialize the live-heap numbers
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			fmt.Fprintln(os.Stderr, "aigre:", err)
		}
	}
}

// exit flushes any requested profiles, then terminates with code.
func exit(code int) {
	finishProfiles()
	os.Exit(code)
}
