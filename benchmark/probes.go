package main

// Layer probes: direct timed calls into a module's exported functions on the
// workload's own inputs, run only in the traced run. Each workload carries
// the probes of the layers its end-to-end time depends on (README lists
// which); every probe is wrapped in a span under the "probes" root.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"aigre"
	"aigre/internal/aig"
	"aigre/internal/aiger"
	"aigre/internal/balance"
	"aigre/internal/bench"
	"aigre/internal/bus"
	"aigre/internal/cec"
	"aigre/internal/cut"
	"aigre/internal/dedup"
	"aigre/internal/factor"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/hashtable"
	"aigre/internal/queue"
	"aigre/internal/rcache"
	"aigre/internal/refactor"
	"aigre/internal/rewrite"
	"aigre/internal/sched"
	"aigre/internal/store"
	"aigre/internal/truth"
)

// prober times calls under one "probes" root span.
type prober struct {
	tr   *tracer
	root int
}

func newProber(tr *tracer) *prober { return &prober{tr: tr, root: tr.begin("probes", -1, -1)} }

func (p *prober) done() { p.tr.end(p.root) }

// time runs fn inside a span named name and returns its wall time.
func (p *prober) time(name string, fn func()) time.Duration {
	s := p.tr.begin(name, p.root, -1)
	start := time.Now()
	fn()
	d := time.Since(start)
	p.tr.end(s)
	return d
}

// parsed returns the inputs as the engines see them in the workload: read
// back from their AIGER bytes.
func parsed(ins []input) ([]*aig.AIG, error) {
	nets := make([]*aig.AIG, len(ins))
	for i := range ins {
		n, err := aigre.Read(bytes.NewReader(ins[i].AIGER))
		if err != nil {
			return nil, err
		}
		nets[i] = n.Internal()
	}
	return nets, nil
}

func ratio(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// probeSuitePar: gpu launch overhead, the lock-free hashtable, the parallel
// engines and dedup called directly per suite input, cut enumeration, and
// full CEC on the inputs where it is cheap.
func probeSuitePar(ctx context.Context, tr *tracer, ins []input, traced passResult, cfg config, rep *report) {
	m := rep.PerLayer
	p := newProber(tr)
	defer p.done()
	nets, err := parsed(ins)
	if err != nil {
		return
	}

	d := gpu.New(cfg.W)
	const launches = 2000
	m["gpu.launch_overhead_us"] = micros(p.time("gpu.launch_overhead", func() {
		for i := 0; i < launches; i++ {
			d.Launch1("probe/empty", cfg.W, func(int) {})
		}
	})) / launches

	probeHashtable(p, cfg, m)

	var balS, rwS, rfS, ddS time.Duration
	var subtrees, rwSeen, rwDone, rfSeen, rfDone, merged, rehashes int
	for _, a := range nets {
		if ctx.Err() != nil {
			return
		}
		balS += p.time("balance.parallel", func() {
			_, st := balance.Parallel(gpu.New(cfg.W), a)
			subtrees += st.Subtrees
		})
		rwS += p.time("rewrite.parallel", func() {
			_, st := rewrite.Parallel(gpu.New(cfg.W), a, rewrite.Options{Cache: rcache.New()})
			rwSeen, rwDone = rwSeen+st.NodesConsidered, rwDone+st.NodesRewritten
		})
		rfS += p.time("refactor.parallel", func() {
			_, st := refactor.Parallel(gpu.New(cfg.W), a, refactor.Options{Cache: rcache.New()})
			rfSeen, rfDone = rfSeen+st.ConesConsidered, rfDone+st.ConesReplaced
		})
		ddS += p.time("dedup.run", func() {
			_, st := dedup.Run(gpu.New(cfg.W), a)
			merged, rehashes = merged+st.DuplicatesMerged, rehashes+st.Rehashes
		})
	}
	m["balance.par_s"] = seconds(balS)
	m["balance.subtrees"] = float64(subtrees)
	m["rewrite.par_s"] = seconds(rwS)
	m["rewrite.accept_ratio"] = ratio(rwDone, rwSeen)
	m["refactor.par_s"] = seconds(rfS)
	m["refactor.accept_ratio"] = ratio(rfDone, rfSeen)
	m["dedup.run_s"] = seconds(ddS)
	m["dedup.merged"] = float64(merged)
	m["dedup.rehashes"] = float64(rehashes)

	probeCuts(p, nets, m)

	// Full CEC of the traced pass's outputs, where it is cheap.
	var cecS time.Duration
	for i, op := range traced.Ops {
		if !ins[i].FullCEC || op.Err != nil || ctx.Err() != nil {
			continue
		}
		out, err := aigre.Read(bytes.NewReader(op.Out))
		if err != nil {
			continue
		}
		cecS += p.time("cec.check", func() { cec.Check(ins[i].Net, out.Internal(), cec.Options{}) })
	}
	m["cec.check_s"] = seconds(cecS)
}

func probeHashtable(p *prober, cfg config, m map[string]float64) {
	n := 1 << 20
	if cfg.Smoke {
		n = 1 << 14
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() | 1 // the zero key is reserved
	}
	mops := func(d time.Duration) float64 { return float64(n) / 1e6 / seconds(d) }

	t := hashtable.New(n)
	m["hashtable.insert_mops"] = mops(p.time("hashtable.insert", func() {
		for i, k := range keys {
			t.InsertUnique(k, uint32(i))
		}
	}))
	m["hashtable.query_mops"] = mops(p.time("hashtable.query", func() {
		for _, k := range keys {
			t.Query(k)
		}
	}))
	t = hashtable.New(n)
	m["hashtable.insertmin_mops"] = mops(p.time("hashtable.insertmin", func() {
		for i, k := range keys {
			t.InsertMin(k, uint32(i))
		}
	}))
	t = hashtable.New(n)
	m["hashtable.insert_mops_w"] = mops(p.time("hashtable.insert_w", func() {
		var wg sync.WaitGroup
		for w := 0; w < cfg.W; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < n; i += cfg.W {
					t.InsertUnique(keys[i], uint32(i))
				}
			}(w)
		}
		wg.Wait()
	}))
}

func probeCuts(p *prober, nets []*aig.AIG, m map[string]float64) {
	var enumS, reconvS time.Duration
	var enumCuts, reconvCuts int
	for _, a := range nets {
		enumS += p.time("cut.enum4", func() {
			for _, cs := range cut.EnumCuts4(a, 8) {
				enumCuts += len(cs)
			}
		})
		reconvS += p.time("cut.reconv", func() {
			r := cut.NewReconv(a)
			a.ForEachAnd(func(id int32) {
				r.Cut(id, 12)
				reconvCuts++
			})
		})
	}
	m["cut.enum4_s"] = seconds(enumS)
	m["cut.enum4_cuts"] = float64(enumCuts)
	m["cut.reconv_s"] = seconds(reconvS)
	m["cut.reconv_cuts"] = float64(reconvCuts)
}

// probeSuiteSeq: the sequential engines called directly per suite input, and
// truth/factor/rcache on the cones and 4-cut functions of the suite.
func probeSuiteSeq(ctx context.Context, tr *tracer, ins []input, traced passResult, cfg config, rep *report) {
	m := rep.PerLayer
	p := newProber(tr)
	defer p.done()
	nets, err := parsed(ins)
	if err != nil {
		return
	}
	var balS, rwS, rfS time.Duration
	var rwSeen, rwDone, rfSeen, rfDone int
	for _, a := range nets {
		if ctx.Err() != nil {
			return
		}
		balS += p.time("balance.sequential", func() { balance.Sequential(a) })
		rwS += p.time("rewrite.sequential", func() {
			_, st := rewrite.Sequential(a, rewrite.Options{Cache: rcache.New()})
			rwSeen, rwDone = rwSeen+st.NodesConsidered, rwDone+st.NodesRewritten
		})
		rfS += p.time("refactor.sequential", func() {
			_, st := refactor.Sequential(a, refactor.Options{Cache: rcache.New()})
			rfSeen, rfDone = rfSeen+st.ConesConsidered, rfDone+st.ConesReplaced
		})
	}
	m["balance.seq_s"] = seconds(balS)
	m["rewrite.seq_s"] = seconds(rwS)
	m["rewrite.accept_ratio"] = ratio(rwDone, rwSeen)
	m["refactor.seq_s"] = seconds(rfS)
	m["refactor.accept_ratio"] = ratio(rfDone, rfSeen)

	// Cone functions (reconvergence cuts of up to 12 leaves) and 4-cut
	// functions of every 64th node of the suite: a few thousand cones, so the
	// ISOP and factoring probes take seconds, not the traced run's budget.
	var cones []truth.TT
	var coneLeaves []int
	var tt4 []uint16
	for _, a := range nets {
		r := cut.NewReconv(a)
		cuts4 := cut.EnumCuts4(a, 8)
		k := 0
		a.ForEachAnd(func(id int32) {
			if k++; k%64 != 0 {
				return
			}
			leaves := append([]int32(nil), r.Cut(id, 12)...)
			cones = append(cones, cut.ConeTruth(a, aig.MakeLit(id, false), leaves))
			coneLeaves = append(coneLeaves, len(leaves))
			for _, c := range cuts4[id] {
				tt4 = append(tt4, c.TT)
			}
		})
	}
	per := func(d time.Duration, n int) time.Duration {
		if n == 0 {
			return 0
		}
		return d / time.Duration(n)
	}
	m["truth.npn4_canon_ns"] = float64(per(p.time("truth.npn4_canon", func() {
		for _, t := range tt4 {
			truth.Npn4Canon(t)
		}
	}), len(tt4)))
	cubes := 0
	m["truth.isop_us"] = micros(per(p.time("truth.isop", func() {
		for _, t := range cones {
			sop, _ := truth.MinPhaseISOP(t)
			cubes += len(sop.Cubes)
		}
	}), len(cones)))
	m["truth.isop_cubes"] = float64(cubes)
	treeNodes := 0
	m["factor.factor_tt_us"] = micros(per(p.time("factor.factor_tt", func() {
		for _, t := range cones {
			tree, _ := factor.FactorTT(t)
			treeNodes += tree.NumAnds()
		}
	}), len(cones)))
	m["factor.tree_nodes"] = float64(treeNodes)

	c := rcache.New()
	for i, t := range cones {
		c.Store(t, coneLeaves[i], rcache.Entry{})
	}
	for _, t := range tt4 {
		c.Npn4(t)
	}
	m["rcache.lookup_ns"] = float64(per(p.time("rcache.lookup", func() {
		for i, t := range cones {
			c.Lookup(t, coneLeaves[i])
		}
	}), len(cones)))
	m["rcache.npn4_ns"] = float64(per(p.time("rcache.npn4", func() {
		for _, t := range tt4 {
			c.Npn4(t)
		}
	}), len(tt4)))
}

// probeDeepPart: the same call at one worker and with level windows, the aig
// and aiger primitives and the sampling gate on the million-node network and
// multiplier x4, and the scheduler's fixed costs.
func probeDeepPart(ctx context.Context, tr *tracer, ins []input, traced passResult, cfg config, rep *report) {
	m := rep.PerLayer
	p := newProber(tr)
	defer p.done()
	sz := cfg.sizes()
	in := &ins[0]

	engineWall := func(opt optimizeFn, workers int) time.Duration {
		n, err := aigre.Read(bytes.NewReader(in.AIGER))
		if err != nil {
			return 0
		}
		var res aigre.Result
		p.time("partition.run", func() { res, _ = opt(ctx, n, workers) })
		return res.Wall
	}
	w1 := engineWall(optimizeDeepPart(sz.partTarget, aigre.PartitionCones), 1)
	m["partition.w1_wall_s"] = seconds(w1)
	if wall := traced.Ops[0].EngineWall; cfg.W < 2 {
		rep.Notes = append(rep.Notes, "partition.speedup suppressed: with W < 2 there is no parallel run to compare against")
	} else if wall > 0 {
		m["partition.speedup"] = seconds(w1) / seconds(wall)
	}
	m["partition.levels_wall_s"] = seconds(engineWall(optimizeDeepPart(sz.partTarget, aigre.PartitionLevels), cfg.W))
	if ctx.Err() != nil {
		return
	}

	mul, err := suiteInputs(sz.suiteScale, cfg.Seed, []string{"multiplier"})
	if err != nil {
		return
	}
	probeAIG(p, []input{*in, mul[0]}, m)

	if out, err := aigre.Read(bytes.NewReader(traced.Ops[0].Out)); err == nil {
		m["cec.sample_refute_s"] = seconds(p.time("cec.sample_refute", func() {
			cec.SampleRefute(in.Net, out.Internal(), 0, cfg.Seed)
		}))
	}

	pool := sched.NewPool(cfg.W)
	defer pool.Close()
	tasks := make([]func(), cfg.W)
	for i := range tasks {
		tasks[i] = func() {}
	}
	const rounds = 20000
	m["sched.pool_execute_us"] = micros(p.time("sched.pool_execute", func() {
		for i := 0; i < rounds; i++ {
			pool.Execute(tasks)
		}
	})) / rounds
	tiny := bench.DeepNarrow(1, 1)
	jobs := make([]sched.Job, 500)
	for i := range jobs {
		jobs[i] = sched.Job{Name: fmt.Sprintf("noop%d", i), AIG: tiny, Script: "b",
			Custom: func(context.Context, *sched.Pool) (flow.Result, error) { return flow.Result{AIG: tiny}, nil }}
	}
	m["sched.runjobs_overhead_us"] = micros(p.time("sched.runjobs", func() {
		sched.RunJobs(ctx, pool, jobs, 0)
	})) / float64(len(jobs))
}

// probeAIG times the aiger codec and the aig primitives, summed over ins.
func probeAIG(p *prober, ins []input, m map[string]float64) {
	var readS, writeS, cloneS, strashS, fanoutS, levelS, topoS, compactS, checkS, simS, newAndS time.Duration
	var bytesIO, ands, footprint int64
	for i := range ins {
		in := &ins[i]
		var a *aig.AIG
		readS += p.time("aiger.read", func() { a, _ = aiger.Read(bytes.NewReader(in.AIGER)) })
		if a == nil {
			return
		}
		var buf bytes.Buffer
		writeS += p.time("aiger.write", func() { aiger.WriteBinary(&buf, a) })
		bytesIO += int64(len(in.AIGER))
		ands += int64(a.NumAnds())
		footprint += a.MemoryFootprint()

		var c *aig.AIG
		cloneS += p.time("aig.clone", func() { c = a.Clone() })
		strashS += p.time("aig.rebuild_strash", func() { c.RebuildStrash() })
		fanoutS += p.time("aig.fanouts", func() { c.EnableFanouts() })
		levelS += p.time("aig.levels", func() { a.NodeLevels() })
		topoS += p.time("aig.topo", func() { a.TopoOrder(false) })
		compactS += p.time("aig.compact", func() { a.Compact() })
		checkS += p.time("aig.check", func() { aig.Check(a) })
		pats := make([][]uint64, a.NumPIs())
		for j := range pats {
			pats[j] = []uint64{uint64(j) * 0x9E3779B97F4A7C15}
		}
		simS += p.time("aig.simulate", func() { a.Simulate(pats) })
		newAndS += p.time("aig.newand", func() { replayStrashed(a) })
	}
	m["aiger.read_s"] = seconds(readS)
	m["aiger.write_s"] = seconds(writeS)
	m["aiger.read_mb_per_s"] = float64(bytesIO) / 1e6 / seconds(readS)
	m["aiger.write_mb_per_s"] = float64(bytesIO) / 1e6 / seconds(writeS)
	m["aig.clone_s"] = seconds(cloneS)
	m["aig.rebuild_strash_s"] = seconds(strashS)
	m["aig.fanouts_s"] = seconds(fanoutS)
	m["aig.levels_s"] = seconds(levelS)
	m["aig.topo_s"] = seconds(topoS)
	m["aig.compact_s"] = seconds(compactS)
	m["aig.check_s"] = seconds(checkS)
	m["aig.simulate_s"] = seconds(simS)
	m["aig.newand_mops"] = float64(ands) / 1e6 / seconds(newAndS)
	m["aig.bytes_per_node"] = float64(footprint) / float64(ands)
}

// replayStrashed rebuilds a node by node through the structural hash: one
// strashed NewAnd insert per AND node.
func replayStrashed(a *aig.AIG) {
	out := aig.NewCap(a.NumPIs(), a.NumObjs())
	out.EnableStrash()
	mp := make([]aig.Lit, a.NumObjs())
	for i := 0; i < a.NumPIs(); i++ {
		mp[i+1] = out.PI(i)
	}
	for _, id := range a.TopoOrder(false) {
		f0, f1 := a.Fanin0(id), a.Fanin1(id)
		mp[id] = out.NewAnd(mp[f0.Var()].NotCond(f0.IsCompl()), mp[f1.Var()].NotCond(f1.IsCompl()))
	}
}

// probeDaemonLayers: the durable queue, the blob store and the event bus on
// a WAL in the daemon's temp dir, with the workload's own AIGER payloads.
func probeDaemonLayers(ctx context.Context, tr *tracer, dir string, ins []input, cfg config, m map[string]float64) {
	p := newProber(tr)
	defer p.done()
	jobs := 334 // three records each: a 1000-record WAL
	if cfg.Smoke {
		jobs = 40
	}

	walPath := filepath.Join(dir, "probe.jsonl")
	q, err := queue.Open(walPath, queue.Options{})
	if err != nil {
		return
	}
	ids := make([]string, jobs)
	var submit []float64
	for i := range ids {
		ids[i] = queue.NewID()
		spec := queue.Spec{ID: ids[i], Script: lightScript, Client: "probe", AIGER: ins[i%len(ins)].AIGER, Submitted: time.Now()}
		submit = append(submit, millis(p.time("queue.submit", func() { err = q.Submit(spec) })))
		if err != nil {
			q.Close()
			return
		}
	}
	m["queue.submit_ms_p50"] = median(submit)
	if pc, ok := tailPercentile(len(submit), 95); ok {
		m["queue.submit_ms_p95"] = percentile(submit, pc)
	}
	m["queue.lease_us"] = micros(p.time("queue.lease", func() {
		for range ids {
			q.Lease()
		}
	})) / float64(jobs)
	m["queue.resolve_ms"] = millis(p.time("queue.resolve", func() {
		for _, id := range ids {
			q.Resolve(id, queue.Done, "", &queue.Session{})
		}
	})) / float64(jobs)
	q.Close()
	m["queue.open_replay_s"] = seconds(p.time("queue.open_replay", func() { q, err = queue.Open(walPath, queue.Options{}) }))
	if err != nil {
		return
	}
	m["queue.compact_s"] = seconds(p.time("queue.compact", func() { q.Compact() }))
	q.Close()

	if st, err := store.Open(filepath.Join(dir, "probe.store")); err == nil {
		var put, get []float64
		digests := make([]string, jobs)
		for i := range digests {
			blob := append(append([]byte(nil), ins[i%len(ins)].AIGER...), byte(i), byte(i>>8)) // distinct contents
			put = append(put, millis(p.time("store.put", func() { digests[i], _ = st.Put(blob) })))
		}
		for _, dg := range digests {
			get = append(get, micros(p.time("store.get", func() { st.Get(dg) })))
		}
		m["store.put_ms_p50"] = median(put)
		m["store.get_us_p50"] = median(get)
	}

	b := bus.New("probe")
	const busJobs, eventsPerJob = 1000, 100
	names := make([]string, busJobs)
	for i := range names {
		names[i] = fmt.Sprintf("j-%d", i)
	}
	m["bus.publish_ns"] = float64(p.time("bus.publish", func() {
		for e := 0; e < eventsPerJob; e++ {
			for _, job := range names {
				b.Publish(job, bus.Event{Type: "attempt"})
			}
		}
	})) / (busJobs * eventsPerJob)
	m["bus.subscribe_replay_us"] = micros(p.time("bus.subscribe_replay", func() {
		for _, job := range names {
			b.Subscribe(job, "").Close()
		}
	})) / busJobs
}
