package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aigre/client"
)

// daemonCircuits are the eight scale-1 suite circuits of daemon_mixed
// (5-28 KB of AIGER each).
var daemonCircuits = []string{"sixteen", "mem_ctrl", "vga_lcd", "ac97_ctrl", "voter", "sin", "sqrt", "multiplier"}

const (
	lightScript = "b"        // 70 % of jobs
	heavyScript = "b; rw; b" // 30 %: keeps the engine visible at p95
	heavyShare  = 0.30
	startupWait = 30 * time.Second
	drainWait   = 40 * time.Second // above aigred's own 30 s drain deadline
)

// jobSpec is one job of the seeded list: which circuit, which script.
type jobSpec struct {
	input  int
	script string
}

// jobList draws n jobs from rng.
func jobList(rng *rand.Rand, n, inputs int) []jobSpec {
	jobs := make([]jobSpec, n)
	for i := range jobs {
		jobs[i] = jobSpec{input: rng.Intn(inputs), script: lightScript}
		if rng.Float64() < heavyShare {
			jobs[i].script = heavyScript
		}
	}
	return jobs
}

// jobResult is what one tenant saw of one job.
type jobResult struct {
	spec    jobSpec
	id      string
	latency time.Duration // submit call start -> result bytes in hand
	session client.Session
	out     []byte
	digest  string // X-Aigred-Digest
	err     error
}

// daemon is one aigred incarnation.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *os.File
}

// buildAigred compiles cmd/aigred into dir. The benchmark's module replaces
// the aigre module with its parent directory, so the package is built from
// the checkout's own source.
func buildAigred(ctx context.Context, dir string) (string, error) {
	bin := filepath.Join(dir, "aigred")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "aigre/cmd/aigred")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build aigre/cmd/aigred: %w\n%s", err, out)
	}
	return bin, nil
}

// startDaemon spawns aigred on dir's WAL and waits for the port file and
// /healthz. ctx cancellation (harness timeout, signal) kills the process.
func startDaemon(ctx context.Context, bin, dir string, workers int) (*daemon, error) {
	portFile := filepath.Join(dir, "port")
	if err := os.Remove(portFile); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "aigred.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := strconv.Itoa(workers)
	cmd := exec.CommandContext(ctx, bin, "-queue", filepath.Join(dir, "q.jsonl"),
		"-workers", w, "-max-jobs", w, "-port-file", portFile)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+w)
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start aigred: %w", err)
	}
	d := &daemon{cmd: cmd, stderr: logf}
	deadline := time.Now().Add(startupWait)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if addr, err := os.ReadFile(portFile); err == nil && len(addr) > 0 {
			d.base = "http://" + string(addr)
			if resp, err := http.Get(d.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("aigred did not answer /healthz within %v\n%s", startupWait, d.logTail())
}

// stop drains the daemon with SIGTERM and returns its exit code; a daemon
// that outlives drainWait is killed.
func (d *daemon) stop() (int, error) {
	defer d.stderr.Close()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return -1, fmt.Errorf("signal aigred: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return -1, err
		}
		return d.cmd.ProcessState.ExitCode(), nil
	case <-time.After(drainWait):
		d.cmd.Process.Kill()
		<-done
		return -1, fmt.Errorf("aigred did not drain within %v", drainWait)
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
	d.stderr.Close()
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(d.stderr.Name())
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

func (d *daemon) pid() string { return strconv.Itoa(d.cmd.Process.Pid) }

// procCPU is user+system CPU of pid from /proc/<pid>/stat.
func procCPU(pid string) time.Duration {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the line.
	rest := string(b)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	const clockTick = 100 // USER_HZ on every Linux ABI Go supports
	return time.Duration(utime+stime) * time.Second / clockTick
}

var totalAllocLine = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)$`)

// daemonTotalAlloc reads runtime.MemStats.TotalAlloc of the daemon from its
// pprof heap endpoint, which prints MemStats after the profile.
func daemonTotalAlloc(base string) (uint64, error) {
	resp, err := http.Get(base + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := totalAllocLine.FindSubmatch(body)
	if m == nil {
		return 0, errors.New("no TotalAlloc line in /debug/pprof/heap?debug=1")
	}
	return strconv.ParseUint(string(m[1]), 10, 64)
}

// runTenants drives jobs through W closed-loop tenants, one client and one
// connection each: a tenant submits its next job only when the previous
// result is in hand, as a flow script would. Jobs are handed out in list
// order. firstOp numbers the ops for the spans.
func runTenants(ctx context.Context, tr *tracer, parent int, base string, tenants int, ins []input, jobs []jobSpec, firstOp int) []jobResult {
	results := make([]jobResult, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for t := 0; t < tenants; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			transport := &http.Transport{MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			c := client.New(base).WithHTTPClient(&http.Client{Transport: transport})
			name := "t" + strconv.Itoa(t)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				results[i] = runJob(ctx, tr, parent, firstOp+i, c, name, ins, jobs[i])
			}
		}(t)
	}
	wg.Wait()
	return results
}

func runJob(ctx context.Context, tr *tracer, parent, op int, c *client.Client, tenant string, ins []input, spec jobSpec) (r jobResult) {
	r.spec = spec
	in := &ins[spec.input]
	start := time.Now()
	jobSpan := tr.begin("job", parent, op)
	defer tr.end(jobSpan)

	s := tr.begin("client.submit", jobSpan, op)
	ack, err := c.Submit(ctx, client.SubmitRequest{Name: in.Name, Script: spec.script, Client: tenant, AIGER: in.AIGER})
	tr.end(s)
	if err != nil {
		r.err = fmt.Errorf("submit %s: %w", in.Name, err)
		return r
	}
	r.id = ack.ID

	s = tr.begin("client.wait", jobSpan, op)
	job, err := c.Wait(ctx, ack.ID)
	tr.end(s)
	if err != nil {
		r.err = fmt.Errorf("wait %s: %w", ack.ID, err)
		return r
	}
	if job.State != client.StateDone || job.Session == nil {
		r.err = fmt.Errorf("job %s ended %s: %s", ack.ID, job.State, job.Detail)
		return r
	}
	r.session = *job.Session

	s = tr.begin("client.result", jobSpan, op)
	r.out, r.digest, err = c.Result(ctx, ack.ID)
	tr.end(s)
	r.latency = time.Since(start)
	if err != nil {
		r.err = fmt.Errorf("result %s: %w", ack.ID, err)
	}
	return r
}

// verifyJobs checks every job outside the timed region — digest header
// against the SHA-256 of the bytes, then parse, Check and 4096-pattern
// simulation against the submitted input — and returns the per-job AND and
// level ratios of the jobs that passed.
func verifyJobs(rep *report, ver *verifier, ins []input, results []jobResult) (andR, levelR []float64) {
	for _, r := range results {
		rep.Attempted++
		if r.err != nil {
			rep.fail(r.err)
			continue
		}
		sum := sha256.Sum256(r.out)
		if hex.EncodeToString(sum[:]) != r.digest {
			rep.fail(fmt.Errorf("job %s: digest header %q is not the SHA-256 of the %d result bytes", r.id, r.digest, len(r.out)))
			continue
		}
		in := &ins[r.spec.input]
		vd := ver.check(in, r.out, sum, false)
		if vd.Err != nil {
			rep.fail(fmt.Errorf("job %s: %w", r.id, vd.Err))
			continue
		}
		andR = append(andR, float64(vd.Ands)/float64(in.Ands))
		levelR = append(levelR, float64(vd.Levels)/float64(in.Levels))
	}
	return andR, levelR
}

func runDaemon(ctx context.Context, cfg config) (rep *report, err error) {
	sz := cfg.sizes()
	rep = newReport(cfg)
	if rep.Host.TempFS == "tmpfs" {
		fmt.Fprintln(os.Stderr, "warning:", rep.Host.TempFSNote)
	}
	dir, err := os.MkdirTemp("", "aigre-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up: inputs, go build, daemon start until /healthz, repeated for
	// its median (the first go build of a checkout pays for a cold cache);
	// the daemon of the last repeat stays up and takes the warm-up jobs.
	var ins []input
	var d *daemon
	defer func() { // the daemon is stopped on every path out
		if d != nil {
			d.kill()
		}
	}()
	var prepare []float64
	for i := 0; i < prepareRepeats; i++ {
		t := time.Now()
		if ins, err = suiteInputs(1, cfg.Seed, daemonCircuits); err != nil {
			return nil, err
		}
		bin, err := buildAigred(ctx, dir)
		if err != nil {
			return nil, err
		}
		if d, err = startDaemon(ctx, bin, dir, cfg.W); err != nil {
			return nil, err
		}
		prepare = append(prepare, seconds(time.Since(t)))
		if i < prepareRepeats-1 {
			_, err := d.stop()
			d = nil
			if err != nil {
				return nil, err
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	timedJobs := int(float64(sz.daemonJobsPerSecond) * cfg.Seconds)
	if cfg.Trace {
		timedJobs = sz.daemonTraced
	}
	if timedJobs < cfg.W {
		timedJobs = cfg.W
	}
	warmJobs := jobList(rng, sz.daemonWarm, len(ins))
	jobs := jobList(rng, timedJobs, len(ins))

	t := time.Now()
	for _, r := range runTenants(ctx, nil, -1, d.base, cfg.W, ins, warmJobs, 0) {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up job failed: %w\n%s", r.err, d.logTail())
		}
	}
	setupS := median(prepare) + seconds(time.Since(t))
	rep.WarmupPasses = 1

	// The timed phase. The traced run takes an untraced reference phase of
	// the same jobs first; the ratio of the two is the tracing overhead.
	var tr *tracer
	var refWall time.Duration
	var refResults []jobResult
	if cfg.Trace {
		t = time.Now()
		refResults = runTenants(ctx, nil, -1, d.base, cfg.W, ins, jobs, 0)
		refWall = time.Since(t)
		tr = newTracer()
	}
	alloc0, allocErr := daemonTotalAlloc(d.base)
	cpu0 := procCPU(d.pid())
	t = time.Now()
	phase := tr.begin("pass", -1, -1)
	results := runTenants(ctx, tr, phase, d.base, cfg.W, ins, jobs, len(jobs))
	tr.end(phase)
	wall := time.Since(t)
	cpu := procCPU(d.pid()) - cpu0
	alloc1, err := daemonTotalAlloc(d.base)
	if err == nil {
		err = allocErr
	}
	if err != nil {
		return nil, fmt.Errorf("read daemon TotalAlloc: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	peakRSS := peakRSSMB(d.pid())
	stats, err := client.New(d.base).Stats(ctx)
	if err != nil {
		return nil, fmt.Errorf("read /v1/stats: %w", err)
	}
	rep.Passes = len(jobs)

	// Drain, restart on the same WAL, fetch earlier results again.
	t = time.Now()
	span := tr.begin("aigred.restart", -1, -1)
	code, err := d.stop()
	d = nil
	rep.Attempted++
	if err != nil {
		rep.fail(err)
	} else if code != 0 {
		rep.fail(fmt.Errorf("aigred exit code %d after drain", code))
	}
	bin := filepath.Join(dir, "aigred")
	if d, err = startDaemon(ctx, bin, dir, cfg.W); err != nil {
		return nil, fmt.Errorf("restart on the same WAL: %w", err)
	}
	tr.end(span)
	restart := time.Since(t)

	c := client.New(d.base)
	refetch := sz.daemonRefetch
	if refetch > len(results) {
		refetch = len(results)
	}
	for _, i := range rng.Perm(len(results))[:refetch] {
		r := results[i]
		if r.err != nil {
			continue // already counted as a failed job
		}
		rep.Attempted++
		out, digest, err := c.Result(ctx, r.id)
		switch {
		case err != nil:
			rep.fail(fmt.Errorf("refetch %s after restart: %w", r.id, err))
		case digest != r.digest || string(out) != string(r.out):
			rep.fail(fmt.Errorf("refetch %s after restart: result differs", r.id))
		}
	}
	code, err = d.stop()
	d = nil
	rep.Attempted++
	if err != nil {
		rep.fail(err)
	} else if code != 0 {
		rep.fail(fmt.Errorf("aigred exit code %d after final drain", code))
	}

	// Verification and metrics.
	ver := newVerifier(cfg.Seed)
	verifyJobs(rep, ver, ins, refResults)
	andR, levelR := verifyJobs(rep, ver, ins, results)

	var lat []float64
	var nodes float64
	var modeled time.Duration
	finished := 0
	for _, r := range results {
		if r.err != nil {
			continue
		}
		finished++
		lat = append(lat, millis(r.latency))
		nodes += float64(r.session.NodesBefore)
		modeled += r.session.ModeledNS
	}
	w := seconds(wall)
	rep.set("setup_s", []float64{setupS})
	rep.set("wall_s", []float64{w})
	rep.set("nodes_per_s", []float64{nodes / w})
	rep.set("cpu_s", []float64{seconds(cpu)})
	rep.set("alloc_mb", []float64{float64(alloc1-alloc0) / 1e6})
	rep.set("peak_rss_mb", []float64{peakRSS})
	rep.set("modeled_s", []float64{seconds(modeled)})
	rep.set("and_ratio", []float64{geomean(andR)})
	rep.set("level_ratio", []float64{geomean(levelR)})
	rep.set("jobs_per_s", []float64{float64(finished) / w})
	rep.setLatency(lat)

	if cfg.Trace {
		m := rep.PerLayer
		spans := tr.snapshot()
		p50 := func(ds []time.Duration) float64 { return median(mapMillis(ds)) }
		submit := mapMillis(durations(spans, "client.submit"))
		m["client.submit_ms_p50"] = median(submit)
		if p, ok := tailPercentile(len(submit), 95); ok {
			m["client.submit_ms_p95"] = percentile(submit, p)
		}
		m["client.wait_ms_p50"] = p50(durations(spans, "client.wait"))
		m["client.result_ms_p50"] = p50(durations(spans, "client.result"))
		var queued, run, overhead []float64
		for _, r := range results {
			if r.err != nil {
				continue
			}
			queued = append(queued, millis(r.session.QueuedNS))
			run = append(run, millis(r.session.WallNS))
			overhead = append(overhead, millis(r.latency-r.session.WallNS))
		}
		m["aigred.queued_ms_p50"] = median(queued)
		m["aigred.run_ms_p50"] = median(run)
		m["aigred.overhead_ms_p50"] = median(overhead)
		m["aigred.wal_bytes"] = float64(stats.Queue.WALBytes)
		m["aigred.compactions"] = float64(stats.Queue.Compactions)
		m["aigred.store_bytes"] = float64(stats.Store.Bytes)
		m["aigred.restart_s"] = seconds(restart)
		probeDaemonLayers(ctx, tr, dir, ins, cfg, m)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.finishTrace(tr, wall, refWall)
	}
	return rep, nil
}

func mapMillis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = millis(d)
	}
	return out
}
