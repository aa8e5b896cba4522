package main

// The catalogue of workloads and metrics. BENCHMARK.json at the repository
// root repeats these names, units and bounds; TestBenchmarkJSONMatchesCatalogue
// keeps the two in step.

type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"suite_par", "paper Table III: 14 suite circuits (scale 4) through parallel resyn2; balance/rewrite/refactor/dedup kernels, hashtable and rcache do the work"},
	{"suite_seq", "same 14 inputs through the sequential ABC-style resyn2; in-place replacement bypasses gpu/hashtable/dedup, so a parallel-only gain that costs the shared layers shows here"},
	{"deep_part", "million-node deep-narrow AIG through cone-partitioned 'b; rw'; kernel parallelism starves, time goes to partition/sched/aig rebuild/cec gate/aiger"},
	{"daemon_mixed", "aigred service path: W closed-loop tenants submit/wait/fetch small mixed jobs; aiger, queue fsync, store, bus/SSE, HTTP and client dominate, plus a drain and restart"},
}

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the base median by which it may worsen
}

// endToEnd lists what a user of the system sees. failed_share is the
// thirteenth: it travels as the attempted/failed pair of every result line
// (it is 0 on a healthy run, so it cannot carry a relative bound) and may
// never rise.
//
// The bounds come from the spread measured over ten seeds on a shared 2-core
// VM (README, "Bounds"): a bound under three times a metric's own spread
// cannot tell a regression from noise.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"nodes_per_s", "nodes/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"alloc_mb", "MB", "lower", 0.08},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"modeled_s", "s", "lower", 0.25},
	{"and_ratio", "ratio", "lower", 0.01},
	{"level_ratio", "ratio", "lower", 0.05},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p95_ms", "ms", "lower", 0.25},
}

// perLayer lists the traced run's metrics, "<module>.<metric>". A workload
// that does not reach a layer, or whose traced run does not carry the
// layer's probe, reports 0 for it (see README, "Per-layer metrics").
var perLayer = []metricDef{
	{"aiger.read_s", "s", "lower", 0},
	{"aiger.write_s", "s", "lower", 0},
	{"aiger.read_mb_per_s", "MB/s", "higher", 0},
	{"aiger.write_mb_per_s", "MB/s", "higher", 0},

	{"aig.clone_s", "s", "lower", 0},
	{"aig.rebuild_strash_s", "s", "lower", 0},
	{"aig.fanouts_s", "s", "lower", 0},
	{"aig.levels_s", "s", "lower", 0},
	{"aig.topo_s", "s", "lower", 0},
	{"aig.compact_s", "s", "lower", 0},
	{"aig.check_s", "s", "lower", 0},
	{"aig.simulate_s", "s", "lower", 0},
	{"aig.newand_mops", "Mops/s", "higher", 0},
	{"aig.bytes_per_node", "B", "lower", 0},

	{"cut.enum4_s", "s", "lower", 0},
	{"cut.enum4_cuts", "count", "lower", 0},
	{"cut.reconv_s", "s", "lower", 0},
	{"cut.reconv_cuts", "count", "lower", 0},

	{"truth.npn4_canon_ns", "ns", "lower", 0},
	{"truth.isop_us", "us", "lower", 0},
	{"truth.isop_cubes", "count", "lower", 0},
	{"factor.factor_tt_us", "us", "lower", 0},
	{"factor.tree_nodes", "count", "lower", 0},

	{"hashtable.insert_mops", "Mops/s", "higher", 0},
	{"hashtable.query_mops", "Mops/s", "higher", 0},
	{"hashtable.insertmin_mops", "Mops/s", "higher", 0},
	{"hashtable.insert_mops_w", "Mops/s", "higher", 0},

	{"rcache.hit_ratio", "ratio", "higher", 0},
	{"rcache.npn_hit_ratio", "ratio", "higher", 0},
	{"rcache.entries", "count", "lower", 0},
	{"rcache.evictions", "count", "lower", 0},
	{"rcache.lookup_ns", "ns", "lower", 0},
	{"rcache.npn4_ns", "ns", "lower", 0},

	{"gpu.launches", "count", "lower", 0},
	{"gpu.threads", "count", "lower", 0},
	{"gpu.work", "count", "lower", 0},
	{"gpu.span", "count", "lower", 0},
	{"gpu.modeled_s", "s", "lower", 0},
	{"gpu.seq_s", "s", "lower", 0},
	{"gpu.kernel_wall_s", "s", "lower", 0},
	{"gpu.host_outside_s", "s", "lower", 0},
	{"gpu.launch_overhead_us", "us", "lower", 0},

	{"balance.par_s", "s", "lower", 0},
	{"balance.seq_s", "s", "lower", 0},
	{"balance.subtrees", "count", "lower", 0},
	{"rewrite.par_s", "s", "lower", 0},
	{"rewrite.seq_s", "s", "lower", 0},
	{"rewrite.accept_ratio", "ratio", "higher", 0},
	{"refactor.par_s", "s", "lower", 0},
	{"refactor.seq_s", "s", "lower", 0},
	{"refactor.accept_ratio", "ratio", "higher", 0},
	{"dedup.run_s", "s", "lower", 0},
	{"dedup.merged", "count", "higher", 0},
	{"dedup.rehashes", "count", "lower", 0},

	{"flow.b_s", "s", "lower", 0},
	{"flow.rw_s", "s", "lower", 0},
	{"flow.rf_s", "s", "lower", 0},
	{"flow.dedup_s", "s", "lower", 0},
	{"flow.gate_s", "s", "lower", 0},
	{"flow.incidents", "count", "lower", 0},
	{"flow.digest_unstable", "count", "lower", 0},

	{"partition.parts", "count", "lower", 0},
	{"partition.jobwall_s", "s", "lower", 0},
	{"partition.queued_s", "s", "lower", 0},
	{"partition.nonjob_s", "s", "lower", 0},
	{"partition.shared_nodes", "count", "lower", 0},
	{"partition.conflicts_found", "count", "lower", 0},
	{"partition.rollbacks", "count", "lower", 0},
	{"partition.stitch_rounds", "count", "lower", 0},
	{"partition.w1_wall_s", "s", "lower", 0},
	{"partition.speedup", "ratio", "higher", 0},
	{"partition.levels_wall_s", "s", "lower", 0},

	{"sched.pool_execute_us", "us", "lower", 0},
	{"sched.runjobs_overhead_us", "us", "lower", 0},

	{"cec.sample_refute_s", "s", "lower", 0},
	{"cec.check_s", "s", "lower", 0},

	{"queue.submit_ms_p50", "ms", "lower", 0},
	{"queue.submit_ms_p95", "ms", "lower", 0},
	{"queue.lease_us", "us", "lower", 0},
	{"queue.resolve_ms", "ms", "lower", 0},
	{"queue.compact_s", "s", "lower", 0},
	{"queue.open_replay_s", "s", "lower", 0},
	{"store.put_ms_p50", "ms", "lower", 0},
	{"store.get_us_p50", "us", "lower", 0},
	{"bus.publish_ns", "ns", "lower", 0},
	{"bus.subscribe_replay_us", "us", "lower", 0},

	{"client.submit_ms_p50", "ms", "lower", 0},
	{"client.submit_ms_p95", "ms", "lower", 0},
	{"client.wait_ms_p50", "ms", "lower", 0},
	{"client.result_ms_p50", "ms", "lower", 0},
	{"aigred.queued_ms_p50", "ms", "lower", 0},
	{"aigred.run_ms_p50", "ms", "lower", 0},
	{"aigred.overhead_ms_p50", "ms", "lower", 0},
	{"aigred.wal_bytes", "B", "lower", 0},
	{"aigred.compactions", "count", "lower", 0},
	{"aigred.store_bytes", "B", "lower", 0},
	{"aigred.restart_s", "s", "lower", 0},

	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.unspanned_ratio", "ratio", "lower", 0},
}

func findMetric(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
