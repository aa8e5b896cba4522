// Command benchmark is the repository's one benchmark: four named workloads,
// twelve bounded end-to-end metrics plus failed_share, and a traced run that
// gives about a hundred per-layer metrics. See README.md.
//
//	go run . -workload suite_par -seed 1 -seconds 15 -trace 0   one workload, in this process
//	go run .                                                    all four, timed then traced, each in a child process
//	go run . -compare a.json b.json                             judge two sets of runs against the bounds
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run this workload in this process (default: all four, each in a child process)")
		seed     = fs.Int64("seed", 1, "offsets the MtM generator seeds, the daemon job order and the verification patterns")
		secs     = fs.Float64("seconds", 15, "how long the timed passes of one workload measure")
		trace    = fs.Int("trace", -1, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics), -1 = both (all-workloads mode only)")
		smoke    = fs.Bool("smoke", false, "tiny sizes: six suite circuits at scale 1, DeepNarrow(8, 500), 60 daemon jobs per second")
		outDir   = fs.String("out", "out", "directory for the JSON reports and trace.json")
		runs     = fs.Int("runs", 1, "all-workloads mode: repeat the timed run this often, with seeds seed..seed+runs-1")
		timeout  = fs.Duration("timeout", 170*time.Second, "kill a workload run (and its daemon) after this long")
		compare  = fs.Bool("compare", false, "compare two bench.json files given as arguments")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 || *secs <= 0 || *runs < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments")
		fs.Usage()
		return 2
	}

	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	runtime.GOMAXPROCS(w)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workload == "" {
		failed, err := runAll(ctx, allOptions{seed: *seed, seconds: *secs, trace: *trace, smoke: *smoke,
			outDir: *outDir, runs: *runs, timeout: *timeout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
		}
		if err != nil || failed {
			return 1
		}
		return 0
	}
	if !isWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *trace < 0 {
		*trace = 0
	}
	ctx, cancel := context.WithTimeout(ctx, *timeout)
	defer cancel()
	cfg := config{Workload: *workload, Seed: *seed, Seconds: *secs, Trace: *trace == 1, Smoke: *smoke, W: w}
	rep, err := runWorkload(ctx, cfg)
	if err == nil {
		err = saveReport(rep, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rep.print(os.Stdout)
	fmt.Println(rep.resultLine())
	return 0
}

func isWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runWorkload runs one workload in this process.
func runWorkload(ctx context.Context, cfg config) (*report, error) {
	run := runLibrary
	if cfg.Workload == "daemon_mixed" {
		run = runDaemon
	}
	rep, err := run(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	return rep, nil
}

// saveReport leaves the report (and, traced, the spans) in dir for the
// parent process and for -compare.
func saveReport(rep *report, dir string) error {
	if err := writeJSON(dir, reportFile(rep.Workload, rep.Trace), rep); err != nil {
		return err
	}
	if rep.Trace {
		return writeJSON(dir, rep.Workload+".spans.json", rep.Spans)
	}
	return nil
}

type allOptions struct {
	seed    int64
	seconds float64
	trace   int
	smoke   bool
	outDir  string
	runs    int
	timeout time.Duration
}

// runAll runs every workload in a fresh child process each (so peak RSS,
// the process-wide rcache and heap state do not leak between workloads),
// timed first and then traced, and merges the children's reports into
// bench.json and trace.json. failed reports that some op of some run failed.
func runAll(ctx context.Context, o allOptions) (failed bool, err error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	child := func(workload string, seed int64, trace bool) (*report, error) {
		args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
			"-trace", map[bool]string{false: "0", true: "1"}[trace], "-out", o.outDir, "-timeout", o.timeout.String()}
		if o.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.CommandContext(ctx, self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// SIGTERM, not the default kill: the child stops its daemon and
		// removes its temp dir on the way out.
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.WaitDelay = 10 * time.Second
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		var rep report
		if err := readJSON(filepath.Join(o.outDir, reportFile(workload, trace)), &rep); err != nil {
			return nil, err
		}
		return &rep, nil
	}

	var timed, traced []*report
	spans := make(map[string][]span)
	for _, w := range workloads {
		if o.trace != 1 {
			for r := 0; r < o.runs; r++ {
				rep, err := child(w.Name, o.seed+int64(r), false)
				if err != nil {
					return false, err
				}
				timed = append(timed, rep)
				failed = failed || rep.Failed > 0
			}
		}
		if o.trace != 0 {
			rep, err := child(w.Name, o.seed, true)
			if err != nil {
				return false, err
			}
			var s []span
			if err := readJSON(filepath.Join(o.outDir, w.Name+".spans.json"), &s); err != nil {
				return false, err
			}
			spans[w.Name] = s
			traced = append(traced, rep)
			failed = failed || rep.Failed > 0
		}
	}

	if len(timed) > 0 && len(traced) > 0 {
		// The daemon's traced phase has fewer jobs than its timed one, so
		// only its in-run ratio compares like with like.
		fmt.Println("trace_overhead_ratio: traced pass wall / untraced reference pass of the same run; / median timed pass of the timed runs")
		for _, tr := range traced {
			fmt.Printf("  %-14s %.4f", tr.Workload, tr.PerLayer["trace.overhead_ratio"])
			if walls := tr.EndToEnd["wall_s"].Samples; tr.Workload != "daemon_mixed" && len(walls) == 2 {
				fmt.Printf("  %.4f", walls[1]/median(pooled(timed, tr.Workload, "wall_s"))) // walls: reference pass, traced pass
			}
			fmt.Println()
		}
	}
	if err := writeJSON(o.outDir, "bench.json", append(timed, traced...)); err != nil {
		return failed, err
	}
	if len(traced) > 0 {
		if err := writeJSON(o.outDir, "trace.json", spans); err != nil {
			return failed, err
		}
	}
	fmt.Printf("wrote %s\n", filepath.Join(o.outDir, "bench.json"))
	return failed, nil
}
