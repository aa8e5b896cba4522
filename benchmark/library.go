package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"aigre"
	"aigre/internal/flow"
	"aigre/internal/gpu"
)

// optimizeFn is the engine call of one library workload.
type optimizeFn func(ctx context.Context, n *aigre.Network, workers int) (aigre.Result, error)

func optimizeSuitePar(ctx context.Context, n *aigre.Network, workers int) (aigre.Result, error) {
	return n.Resyn2(ctx, aigre.Options{Parallel: true, Workers: workers, Cache: aigre.NewCache()})
}

func optimizeSuiteSeq(ctx context.Context, n *aigre.Network, workers int) (aigre.Result, error) {
	return n.Resyn2(ctx, aigre.Options{Parallel: false, Workers: workers})
}

func optimizeDeepPart(targetSize int, mode aigre.PartitionMode) optimizeFn {
	return func(ctx context.Context, n *aigre.Network, workers int) (aigre.Result, error) {
		return n.Run(ctx, "b; rw", aigre.Options{Workers: workers,
			Partition: aigre.PartitionOptions{Mode: mode, TargetSize: targetSize}})
	}
}

// opResult is one op: aigre.Read(bytes) -> optimize -> Network.Write(buffer).
type opResult struct {
	Input  int
	Wall   time.Duration
	Out    []byte
	Digest [sha256.Size]byte
	Err    error

	EngineWall time.Duration // Result.Wall: the optimize call without parse and write
	Modeled    time.Duration
	Timings    []flow.CommandTiming
	Profile    []gpu.KernelProfile
	Incidents  int
	CacheStats aigre.CacheStats
	Partition  *aigre.PartitionReport
}

// passResult is one op per input of the workload.
type passResult struct {
	Wall  time.Duration
	CPU   time.Duration
	Alloc uint64 // runtime.MemStats.TotalAlloc delta
	Ops   []opResult
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// runPass runs one op per input. Spans go to tr (nil on timed passes); the
// op id is pass*len(ins)+input so spans of one op share it.
func runPass(ctx context.Context, tr *tracer, pass int, ins []input, optimize optimizeFn, workers int) passResult {
	pr := passResult{Ops: make([]opResult, len(ins))}
	alloc0, cpu0 := totalAlloc(), cpuTime()
	start := time.Now()
	passSpan := tr.begin("pass", -1, -1)
	for i := range ins {
		pr.Ops[i] = runOp(ctx, tr, passSpan, pass*len(ins)+i, i, &ins[i], optimize, workers)
	}
	tr.end(passSpan)
	pr.Wall = time.Since(start)
	pr.CPU = cpuTime() - cpu0
	pr.Alloc = totalAlloc() - alloc0
	return pr
}

func runOp(ctx context.Context, tr *tracer, parent, op, idx int, in *input, optimize optimizeFn, workers int) (r opResult) {
	r.Input = idx
	start := time.Now()
	opSpan := tr.begin("op", parent, op)
	defer func() {
		tr.end(opSpan)
		if r.Wall == 0 {
			r.Wall = time.Since(start)
		}
	}()

	s := tr.begin("aiger.read", opSpan, op)
	n, err := aigre.Read(bytes.NewReader(in.AIGER))
	tr.end(s)
	if err != nil {
		r.Err = fmt.Errorf("%s: read: %w", in.Name, err)
		return r
	}

	s = tr.begin("optimize", opSpan, op)
	res, err := optimize(ctx, n, workers)
	tr.end(s)
	if err != nil {
		r.Err = fmt.Errorf("%s: optimize: %w", in.Name, err)
		return r
	}

	var buf bytes.Buffer
	s = tr.begin("aiger.write", opSpan, op)
	err = res.AIG.Write(&buf)
	tr.end(s)
	r.Wall = time.Since(start)
	if err != nil {
		r.Err = fmt.Errorf("%s: write: %w", in.Name, err)
		return r
	}

	r.Out = buf.Bytes()
	r.Digest = sha256.Sum256(r.Out)
	r.EngineWall = res.Wall
	r.Modeled = res.Modeled
	r.Timings = res.Timings
	r.Profile = res.Profile
	r.Incidents = len(res.Incidents)
	r.CacheStats = res.CacheStats
	r.Partition = res.Partition
	return r
}

// libraryWorkload describes one of the three in-process workloads.
type libraryWorkload struct {
	inputs   func() ([]input, error)
	optimize optimizeFn
	// probes runs the workload's share of the layer probes in the traced run.
	probes func(ctx context.Context, tr *tracer, ins []input, traced passResult, cfg config, rep *report)
}

func libraryWorkloadFor(cfg config) libraryWorkload {
	sz := cfg.sizes()
	suite := func() ([]input, error) { return suiteInputs(sz.suiteScale, cfg.Seed, sz.suiteNames) }
	switch cfg.Workload {
	case "suite_par":
		return libraryWorkload{inputs: suite, optimize: optimizeSuitePar, probes: probeSuitePar}
	case "suite_seq":
		return libraryWorkload{inputs: suite, optimize: optimizeSuiteSeq, probes: probeSuiteSeq}
	default: // deep_part
		return libraryWorkload{
			inputs:   func() ([]input, error) { return deepInput(sz.deepChains, sz.deepSteps) },
			optimize: optimizeDeepPart(sz.partTarget, aigre.PartitionCones),
			probes:   probeDeepPart,
		}
	}
}

// prepareRepeats is how often the cheap part of set-up (generate, encode) is
// repeated for its median; the warm-up pass runs once (it is seconds long,
// and a second one would no longer be a first use).
const prepareRepeats = 3

func runLibrary(ctx context.Context, cfg config) (*report, error) {
	wl := libraryWorkloadFor(cfg)
	rep := newReport(cfg)

	var ins []input
	var prepare []float64
	for i := 0; i < prepareRepeats; i++ {
		t := time.Now()
		var err error
		if ins, err = wl.inputs(); err != nil {
			return nil, err
		}
		prepare = append(prepare, seconds(time.Since(t)))
	}
	warm := runPass(ctx, nil, 0, ins, wl.optimize, cfg.W)
	setupS := median(prepare) + seconds(warm.Wall)
	rep.WarmupPasses = 1

	var timed []passResult
	var tr *tracer
	if cfg.Trace {
		// One untraced reference pass, then the traced pass: their ratio is
		// the tracing overhead.
		timed = append(timed, runPass(ctx, nil, 1, ins, wl.optimize, cfg.W))
		tr = newTracer()
		timed = append(timed, runPass(ctx, tr, 2, ins, wl.optimize, cfg.W))
	} else {
		start := time.Now()
		var walls []float64
		for ctx.Err() == nil {
			p := runPass(ctx, nil, 1+len(timed), ins, wl.optimize, cfg.W)
			timed = append(timed, p)
			walls = append(walls, seconds(p.Wall))
			// Stop when another pass would end further from -seconds than
			// stopping now; two passes at least, so every median has a
			// second sample beside it.
			if len(timed) >= 2 && seconds(time.Since(start))+median(walls)/2 >= cfg.Seconds {
				break
			}
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep.Passes = len(timed)
	peakRSS := peakRSSMB("self")

	// Verification, outside the timed region.
	ver := newVerifier(cfg.Seed)
	type ratios struct{ and, level []float64 }
	perPass := make([]ratios, len(timed))
	for p, pass := range timed {
		for _, op := range pass.Ops {
			rep.Attempted++
			in := &ins[op.Input]
			if op.Err != nil {
				rep.fail(op.Err)
				continue
			}
			vd := ver.check(in, op.Out, op.Digest, p == 0 && in.FullCEC)
			if vd.Err != nil {
				rep.fail(vd.Err)
				continue
			}
			perPass[p].and = append(perPass[p].and, float64(vd.Ands)/float64(in.Ands))
			perPass[p].level = append(perPass[p].level, float64(vd.Levels)/float64(in.Levels))
		}
	}
	rep.DigestUnstable = digestUnstable(append([]passResult{warm}, timed...), len(ins))

	// End-to-end samples: one per timed pass, op latencies one per op.
	ands := float64(totalAnds(ins))
	var wall, nodes, cpu, alloc, modeled, andR, levelR, jobs []float64
	opMS := make([][]float64, len(ins)) // per input, one latency per pass
	for p, pass := range timed {
		w := seconds(pass.Wall)
		wall = append(wall, w)
		nodes = append(nodes, ands/w)
		cpu = append(cpu, seconds(pass.CPU))
		alloc = append(alloc, float64(pass.Alloc)/1e6)
		jobs = append(jobs, float64(len(pass.Ops))/w)
		var mod time.Duration
		for _, op := range pass.Ops {
			mod += op.Modeled
			opMS[op.Input] = append(opMS[op.Input], millis(op.Wall))
		}
		modeled = append(modeled, seconds(mod))
		andR = append(andR, geomean(perPass[p].and))
		levelR = append(levelR, geomean(perPass[p].level))
	}
	rep.set("setup_s", []float64{setupS})
	rep.set("wall_s", wall)
	rep.set("nodes_per_s", nodes)
	rep.set("cpu_s", cpu)
	rep.set("alloc_mb", alloc)
	rep.set("peak_rss_mb", []float64{peakRSS})
	rep.set("modeled_s", modeled)
	rep.set("and_ratio", andR)
	rep.set("level_ratio", levelR)
	rep.set("jobs_per_s", jobs)
	// The jobs of a library workload are its inputs: each counts once, with
	// its median latency over the passes. Repeating a circuit adds no
	// information about the tail of the op-latency distribution, and one
	// slow pass should not decide which circuit is the median op.
	var typical []float64
	for _, ms := range opMS {
		typical = append(typical, median(ms))
	}
	rep.setLatency(typical)

	if cfg.Trace {
		m := rep.PerLayer
		ref, traced := timed[0], timed[1]
		layerMetricsFromPass(traced, cfg.W, m)
		m["flow.digest_unstable"] = float64(rep.DigestUnstable)
		wl.probes(ctx, tr, ins, traced, cfg, rep)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.finishTrace(tr, traced.Wall, ref.Wall)
	}
	return rep, nil
}

// digestUnstable counts the inputs whose output bytes differ between passes
// of one run: order-dependence of the parallel engines that nothing else in
// the repository counts. Reported, not failed.
func digestUnstable(passes []passResult, inputs int) int {
	unstable := 0
	for i := 0; i < inputs; i++ {
		for _, p := range passes[1:] {
			if p.Ops[i].Err == nil && passes[0].Ops[i].Err == nil && p.Ops[i].Digest != passes[0].Ops[i].Digest {
				unstable++
				break
			}
		}
	}
	return unstable
}

// unspannedRatio is the share of the root spans' time (those named root)
// that no child span covers.
func unspannedRatio(spans []span, root string) float64 {
	self := selfTimes(spans)
	var total, own int64
	for _, s := range spans {
		if s.Name == root && s.Parent < 0 {
			total += s.End - s.Start
			own += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// layerMetricsFromPass fills the per-layer metrics that the public calls
// already return for the pass's own ops: Result.Timings (flow), Result.Profile
// (gpu), CacheStats (rcache) and Result.Partition.
func layerMetricsFromPass(p passResult, workers int, m map[string]float64) {
	var cmdWall, engineWall time.Duration
	var kernels []gpu.KernelProfile
	var cache aigre.CacheStats
	cmd := map[string]time.Duration{}
	for _, op := range p.Ops {
		for kind, w := range flow.BreakdownWall(op.Timings) {
			cmd[kind] += w
			cmdWall += w
		}
		kernels = append(kernels, op.Profile...)
		cache.Hits += op.CacheStats.Hits
		cache.Misses += op.CacheStats.Misses
		cache.Evictions += op.CacheStats.Evictions
		cache.NpnHits += op.CacheStats.NpnHits
		cache.NpnMisses += op.CacheStats.NpnMisses
		if op.CacheStats.Entries > cache.Entries { // a gauge: the largest cache any op left behind
			cache.Entries = op.CacheStats.Entries
		}
		m["flow.incidents"] += float64(op.Incidents)
		if rp := op.Partition; rp != nil {
			partitionMetrics(rp, op.EngineWall, workers, m)
		}
		engineWall += op.EngineWall
	}
	if cmdWall > 0 {
		m["flow.b_s"] = seconds(cmd["b"])
		m["flow.rw_s"] = seconds(cmd["rw"])
		m["flow.rf_s"] = seconds(cmd["rf"])
		m["flow.dedup_s"] = seconds(cmd["dedup"])
		// What the script run spent outside its commands: checkpoint and
		// the per-command invariant and equivalence gates.
		m["flow.gate_s"] = seconds(engineWall - cmdWall)
	}
	if prof := gpu.TotalProfile(kernels); prof.Launches > 0 {
		m["gpu.launches"] = float64(prof.Launches)
		m["gpu.threads"] = float64(prof.Threads)
		m["gpu.work"] = float64(prof.Work)
		m["gpu.span"] = float64(prof.Span)
		m["gpu.modeled_s"] = seconds(prof.Modeled)
		m["gpu.seq_s"] = seconds(prof.Seq)
		m["gpu.kernel_wall_s"] = seconds(prof.Wall)
		m["gpu.host_outside_s"] = seconds(engineWall - prof.Wall)
	}
	if cache.Hits+cache.Misses > 0 {
		m["rcache.hit_ratio"] = float64(cache.Hits) / float64(cache.Hits+cache.Misses)
	}
	if cache.NpnHits+cache.NpnMisses > 0 {
		m["rcache.npn_hit_ratio"] = float64(cache.NpnHits) / float64(cache.NpnHits+cache.NpnMisses)
	}
	m["rcache.entries"] = float64(cache.Entries)
	m["rcache.evictions"] = float64(cache.Evictions)
}

func partitionMetrics(rp *aigre.PartitionReport, wall time.Duration, workers int, m map[string]float64) {
	var jobWall, queued time.Duration
	for _, p := range rp.Parts {
		jobWall += p.WallNS
		queued += p.QueuedNS
	}
	lanes := workers
	if len(rp.Parts) < lanes {
		lanes = len(rp.Parts)
	}
	m["partition.parts"] = float64(len(rp.Parts))
	m["partition.jobwall_s"] = seconds(jobWall)
	m["partition.queued_s"] = seconds(queued)
	if lanes > 0 {
		// Time outside partition jobs: canonicalize, cluster, extract,
		// stitch, compact, verify.
		m["partition.nonjob_s"] = seconds(wall - jobWall/time.Duration(lanes))
	}
	m["partition.shared_nodes"] = float64(rp.SharedNodes)
	m["partition.conflicts_found"] = float64(rp.ConflictsFound)
	m["partition.rollbacks"] = float64(rp.Rollbacks)
	m["partition.stitch_rounds"] = float64(rp.StitchRounds)
}
