// Command aigred is the crash-recoverable optimization daemon: an HTTP/JSON
// front end over the aigre batch engine with a durable write-ahead job queue.
//
// Jobs are submitted as JSON (an AIGER payload plus a script) and are
// fsync-appended to the queue's write-ahead log *before* the submission is
// acknowledged, so an acknowledged job survives a daemon crash: on restart
// the log is replayed, jobs that were in flight are checkpointed back to
// pending and re-run exactly once more, and completed jobs — whose session
// records remain queryable — are never executed again.
//
// Optimized networks are persisted to a content-addressed blob store at
// outcome time, so results survive restarts and remain fetchable for as
// long as their jobs' records do. The WAL is compacted — snapshot, fsync,
// atomic rename — on restart and once it outgrows -compact-bytes with
// mostly-terminal records, so neither log nor store grows without bound.
//
// Usage:
//
//	aigred -queue /var/lib/aigred/queue.jsonl -addr 127.0.0.1:8080 \
//	       -parallel -workers 8 -retries 2 -stuck-timeout 2s \
//	       -client-weight batch=1 -client-weight interactive=4
//
// Endpoints (v1):
//
//	POST /v1/jobs              submit a job; 202 {"id": "..."} once durable
//	GET  /v1/jobs              list jobs; ?state= ?client= ?limit= filters
//	GET  /v1/jobs/{id}         one job's state, incidents, profile, cache stats
//	GET  /v1/jobs/{id}/result  the optimized AIGER (binary; ?format=json for base64)
//	GET  /v1/jobs/{id}/events  live progress as SSE; Last-Event-ID resumes
//	GET  /v1/stats             queue depths, engine metrics, store size
//	GET  /healthz              liveness (reports draining)
//
// A job's session is the engine's job record — the row aigre -report prints
// for a batch job — plus the result digest and its size; the "engine" block
// of /v1/stats is the engine's fleet metrics under the snake_case keys of the
// aigre -report header (workers, finished, peak_workers, wall_ns, ...).
//
// Errors are a typed JSON envelope {"error": {"code", "message",
// "retry_after_ms"}} with machine-readable codes (saturated, rate_limited,
// draining, not_found, invalid_argument, ...).
//
// Admission control: -max-depth bounds the active queue (503 + Retry-After
// beyond it) and -rate/-burst give each client a token bucket (429 +
// Retry-After when empty). Scheduling across clients is weighted-fair:
// -client-weight name=N sets fair-share weights (stride scheduling; a
// weight-4 client leases 4 jobs per weight-1 job under saturation) and
// -client-max name=N caps a client's concurrently leased jobs; use name '*'
// for the default applied to unlisted clients.
//
// Shutdown: the first SIGTERM/SIGINT starts a graceful drain — new
// submissions get 503, in-flight jobs finish under -drain-timeout, jobs
// that cannot finish are durably checkpointed back to pending for the next
// incarnation. A second signal exits immediately with code 1.
//
// Exit codes (for automation):
//
//	0  clean drain: every executed job completed without incidents
//	1  hard error, or a second signal forced an immediate exit
//	2  usage error
//	3  degraded: jobs completed, but contained incidents were recorded
//	4  job casualty: at least one job failed or was quarantined
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aigre"
	"aigre/internal/queue"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

// run is main's testable body: it parses args, serves until a drain signal,
// and returns the process exit code. The e2e tests re-exec the test binary
// into run via the AIGRED_CHILD environment hook.
func run(args []string) int {
	fs := flag.NewFlagSet("aigred", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "127.0.0.1:0", "listen address")
		queueF   = fs.String("queue", "", "durable queue WAL path (required; created if missing)")
		storeF   = fs.String("store", "", "result blob store directory (default: <queue>.store)")
		portFile = fs.String("port-file", "", "write the bound address to this file once listening")
		workers  = fs.Int("workers", 0, "worker goroutines for the shared device pool (0 = GOMAXPROCS)")
		maxJobs  = fs.Int("max-jobs", 1, "max concurrently executing jobs")
		maxDepth = fs.Int("max-depth", 0, "max active (pending+leased) jobs before 503 (0 = unbounded)")
		rate     = fs.Float64("rate", 0, "per-client submissions per second (0 = unlimited)")
		burst    = fs.Int("burst", 0, "per-client burst allowance (0 = max(1, rate))")
		drainTmo = fs.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline for in-flight jobs")
		jobTmo   = fs.Duration("job-timeout", 0, "per-attempt deadline of one job (0 = none)")
		retries  = fs.Int("retries", 0, "retry budget per job for transient faults, timeouts, and stuck preemptions")
		stuckTmo = fs.Duration("stuck-timeout", 0, "watchdog threshold: preempt a job whose kernel heartbeat stalls this long (0 = off)")
		parallel = fs.Bool("parallel", false, "default jobs to the parallel (GPU-model) engines")
		compactB = fs.Int64("compact-bytes", 8<<20, "compact the queue WAL once it exceeds this size and terminal jobs dominate (0 = never live-compact)")
		verbose  = fs.Bool("v", false, "log every job transition")
	)
	weights := map[string]int{}
	fs.Func("client-weight", "fair-share weight, name=N (repeatable; name '*' sets the default)",
		clientFlag(weights))
	maxInfl := map[string]int{}
	fs.Func("client-max", "max concurrently leased jobs, name=N (repeatable; name '*' sets the default)",
		clientFlag(maxInfl))
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *queueF == "" {
		fmt.Fprintln(os.Stderr, "aigred: -queue is required")
		fs.Usage()
		return 2
	}
	if *maxJobs < 1 || *retries < 0 || *rate < 0 || *burst < 0 || *maxDepth < 0 || *compactB < 0 {
		fmt.Fprintln(os.Stderr, "aigred: negative or zero capacity flags")
		return 2
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bopts := aigre.BatchOptions{
		Workers: *workers,
		Policy: aigre.Policy{
			JobTimeout:   *jobTmo,
			Retries:      *retries,
			StuckTimeout: *stuckTmo,
		},
	}
	srv, err := newServer(ctx, serverConfig{
		queuePath: *queueF,
		storePath: *storeF,
		maxJobs:   *maxJobs,
		rate:      *rate,
		burst:     *burst,
		parallel:  *parallel,
		verbose:   *verbose,
		queue: queue.Options{
			MaxDepth:     *maxDepth,
			Weights:      weights,
			MaxInflight:  maxInfl,
			CompactBytes: *compactB,
		},
		batch: bopts,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigred:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "aigred:", err)
		return 1
	}
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(ln.Addr().String()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "aigred:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "aigred: listening on %s (queue %s, %s)\n",
		ln.Addr(), *queueF, recoveryNote(srv))

	httpDone := make(chan error, 1)
	go func() { httpDone <- srv.serveHTTP(ln) }()

	// First SIGTERM/SIGINT starts the graceful drain; a second one exits
	// immediately with code 1 (the queue stays consistent: every accepted
	// state change is already on disk).
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "aigred: %s: draining (signal again to exit immediately)\n", sig)
		go func() {
			s := <-sigs
			fmt.Fprintf(os.Stderr, "aigred: %s: immediate exit\n", s)
			os.Exit(1)
		}()
	case err := <-httpDone:
		fmt.Fprintln(os.Stderr, "aigred:", err)
		return 1
	}

	code := srv.drain(*drainTmo)
	cancel()
	srv.close()
	return code
}

// clientFlag parses one "name=N" occurrence of a repeatable per-client
// flag into m; the '*' pseudo-client is the table's default entry. N must be
// >= 1.
func clientFlag(m map[string]int) func(string) error {
	return func(v string) error {
		name, nstr, ok := strings.Cut(v, "=")
		if !ok || name == "" {
			return fmt.Errorf("want name=N, got %q", v)
		}
		n, err := strconv.Atoi(nstr)
		if err != nil || n < 1 {
			return fmt.Errorf("bad value %q (want an integer >= 1)", nstr)
		}
		m[name] = n
		return nil
	}
}

// recoveryNote summarizes what Open found in the replayed WAL.
func recoveryNote(s *server) string {
	st := s.q.Stats()
	return fmt.Sprintf("replayed: %d pending, %d recovered, %d done, %d torn",
		st.Pending, st.Recovered, st.Done, st.Torn)
}

// crashAfterLeases is a test hook: when the AIGRED_CRASH_AFTER_LEASES
// environment variable is a positive N, the daemon hard-exits (os.Exit,
// no drain, no checkpoint) immediately after the Nth lease — simulating a
// crash with a job in flight.
func crashAfterLeases() int {
	n, _ := strconv.Atoi(os.Getenv("AIGRED_CRASH_AFTER_LEASES"))
	return n
}
