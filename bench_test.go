// Benchmarks regenerating the paper's tables and figures as testing.B
// targets (see DESIGN.md's experiment index; cmd/experiments prints the
// full formatted tables). One benchmark per experiment artifact:
//
//	BenchmarkTable1SeqPart*   — Table I, sequential-part time per algorithm
//	BenchmarkTable2Balance*   — Table II, balancing (ABC-style vs GPU)
//	BenchmarkTable2Refactor*  — Table II, refactoring (ABC-style vs GPU x2)
//	BenchmarkTable3RfResyn*   — Table III, the rf_resyn sequence
//	BenchmarkTable3Resyn2*    — Table III, the resyn2 sequence
//	BenchmarkFig7Scaling/N    — Figure 7, GPU rf_resyn across sizes
//	BenchmarkFig8Breakdown    — Figure 8, per-command modeled breakdown
//
// This file is the paper's Table/Fig index, not the perf instrument: claims
// are measured with benchmark/ (BENCHMARK.json), whose deep_part workload and
// partition.w1_wall_s / partition.speedup probes cover partition scaling.
//
// GPU-side benchmarks report the modeled device time as "modeled-ns/op"
// next to the host wall time (see DESIGN.md for the substitution).
package aigre_test

import (
	"context"
	"fmt"
	"testing"

	"aigre"
	"aigre/internal/aig"
	"aigre/internal/balance"
	"aigre/internal/bench"
	"aigre/internal/dedup"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/refactor"
	"aigre/internal/rewrite"
)

// benchCase builds one representative benchmark of moderate size (the suite
// mid-weight: a 32-bit multiplier, ~10k nodes).
func benchCase(b *testing.B) *aig.AIG {
	b.Helper()
	a, ok := bench.ByName("multiplier", 1)
	if !ok {
		b.Fatal("missing benchmark circuit")
	}
	return a
}

func reportModeled(b *testing.B, total gpu.Stats) {
	b.ReportMetric(float64(total.ModeledTime.Nanoseconds())/float64(b.N), "modeled-ns/op")
	b.ReportMetric(float64(total.SeqTime.Nanoseconds())/float64(b.N), "seqpart-ns/op")
}

func BenchmarkTable1SeqPartGPURewrite(b *testing.B) {
	a := benchCase(b)
	var total gpu.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := gpu.New(0)
		rewrite.Parallel(d, a, rewrite.Options{})
		total.Add(d.Stats())
	}
	reportModeled(b, total)
}

func BenchmarkTable1SeqPartRefactorSeqReplace(b *testing.B) {
	a := benchCase(b)
	var total gpu.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := gpu.New(0)
		refactor.Parallel(d, a, refactor.Options{SequentialReplacement: true})
		total.Add(d.Stats())
	}
	reportModeled(b, total)
}

func BenchmarkTable1SeqPartRefactorProposed(b *testing.B) {
	a := benchCase(b)
	var total gpu.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := gpu.New(0)
		out, _ := refactor.Parallel(d, a, refactor.Options{})
		dedup.Run(d, out)
		total.Add(d.Stats())
	}
	reportModeled(b, total)
}

func BenchmarkTable2BalanceABC(b *testing.B) {
	a := benchCase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		balance.Sequential(a)
	}
}

func BenchmarkTable2BalanceGPU(b *testing.B) {
	a := benchCase(b)
	var total gpu.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := gpu.New(0)
		balance.Parallel(d, a)
		total.Add(d.Stats())
	}
	reportModeled(b, total)
}

func BenchmarkTable2RefactorABC(b *testing.B) {
	a := benchCase(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refactor.Sequential(a, refactor.Options{})
	}
}

func BenchmarkTable2RefactorGPUx2(b *testing.B) {
	a := benchCase(b)
	var total gpu.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := gpu.New(0)
		cur, _ := refactor.Parallel(d, a, refactor.Options{})
		cur, _ = refactor.Parallel(d, cur, refactor.Options{})
		dedup.Run(d, cur)
		total.Add(d.Stats())
	}
	reportModeled(b, total)
}

func benchSequence(b *testing.B, script string, parallel bool, rwzPasses int) {
	a := benchCase(b)
	var total gpu.Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := flow.Config{Parallel: parallel, RwzPasses: rwzPasses}
		if parallel {
			cfg.Device = gpu.New(0)
		}
		if _, err := flow.Run(context.Background(), a, script, cfg); err != nil {
			b.Fatal(err)
		}
		if parallel {
			total.Add(cfg.Device.Stats())
		}
	}
	if parallel {
		reportModeled(b, total)
	}
}

func BenchmarkTable3RfResynABC(b *testing.B) { benchSequence(b, flow.RfResyn, false, 1) }
func BenchmarkTable3RfResynGPU(b *testing.B) { benchSequence(b, flow.RfResyn, true, 1) }
func BenchmarkTable3Resyn2ABC(b *testing.B)  { benchSequence(b, flow.Resyn2, false, 1) }
func BenchmarkTable3Resyn2GPU(b *testing.B)  { benchSequence(b, flow.Resyn2, true, 2) }

func BenchmarkFig7Scaling(b *testing.B) {
	base := bench.Multiplier(12)
	for doubles := 0; doubles <= 4; doubles++ {
		a := base
		for i := 0; i < doubles; i++ {
			a = bench.Double(a)
		}
		b.Run(fmt.Sprintf("nodes=%d", a.NumAnds()), func(b *testing.B) {
			b.ReportAllocs()
			var total gpu.Stats
			for i := 0; i < b.N; i++ {
				cfg := flow.Config{Parallel: true, Device: gpu.New(0)}
				if _, err := flow.Run(context.Background(), a, flow.RfResyn, cfg); err != nil {
					b.Fatal(err)
				}
				total.Add(cfg.Device.Stats())
			}
			reportModeled(b, total)
		})
	}
}

func BenchmarkFig8Breakdown(b *testing.B) {
	a := benchCase(b)
	var bTime, rwTime, rfTime, ddTime float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := flow.Config{Parallel: true, Device: gpu.New(0), RwzPasses: 2}
		res, err := flow.Run(context.Background(), a, flow.Resyn2, cfg)
		if err != nil {
			b.Fatal(err)
		}
		bd := flow.Breakdown(res.Timings)
		bTime += bd["b"].Seconds()
		rwTime += bd["rw"].Seconds()
		rfTime += bd["rf"].Seconds()
		ddTime += bd["dedup"].Seconds()
	}
	n := float64(b.N)
	b.ReportMetric(bTime/n*1e9, "b-ns/op")
	b.ReportMetric(rwTime/n*1e9, "rw-ns/op")
	b.ReportMetric(rfTime/n*1e9, "rf-ns/op")
	b.ReportMetric(ddTime/n*1e9, "dedup-ns/op")
}

// BenchmarkPublicAPIResyn2 exercises the exported entry point end to end.
func BenchmarkPublicAPIResyn2(b *testing.B) {
	n := aigre.FromInternal(benchCase(b))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Resyn2(context.Background(), aigre.Options{Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}
