package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	for _, c := range []struct{ p, want int }{{50, 50}, {95, 95}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != float64(c.want) {
			t.Errorf("percentile(p%d) = %v, want %d", c.p, got, c.want)
		}
	}
}

// The highest percentile that still has ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n, limit, want int
		ok             bool
	}{
		{3000, 95, 95, true}, // 150 samples beyond p95
		{200, 95, 95, true},  // exactly ten beyond
		{199, 95, 94, true},  // p95 would leave nine
		{42, 95, 76, true},
		{20, 95, 50, false}, // ten beyond only at the median: no tail
		{14, 95, 0, false},
		{6, 95, 0, false},
	} {
		p, ok := tailPercentile(c.n, c.limit)
		if ok != c.ok || (ok && p != c.want) {
			t.Errorf("tailPercentile(%d, %d) = %d, %v; want %d, %v", c.n, c.limit, p, ok, c.want, c.ok)
		}
		if ok {
			if beyond := c.n - percentileRank(c.n, p); beyond < 10 {
				t.Errorf("n=%d: p%d has only %d samples beyond it", c.n, p, beyond)
			}
			if p < c.limit {
				if beyond := c.n - percentileRank(c.n, p+1); beyond >= 10 {
					t.Errorf("n=%d: p%d would still have %d samples beyond it", c.n, p+1, beyond)
				}
			}
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), which
// the acceptance check of the benchmark uses.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 10, 11, 15, 14, 13, 19, 17, 16, 18}
	q1, q3 := quartiles(xs) // statistics.quantiles(range(10, 20), n=4) == [11.75, 14.5, 17.25]
	if !near(q1, 11.75) || !near(q3, 17.25) {
		t.Errorf("quartiles = %v, %v; want 11.75, 17.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 4, 8}) // [1.25, 3.0, 7.0]
	if !near(q1, 1.25) || !near(q3, 7.0) {
		t.Errorf("quartiles = %v, %v; want 1.25, 7", q1, q3)
	}
	if s, ok := spread([]float64{7}); ok || s != 0 {
		t.Errorf("spread of one sample = %v, %v; want unknown", s, ok)
	}
	if s, ok := spread([]float64{9, 10, 11}); !ok || !near(s, 0.2) {
		t.Errorf("spread of three samples = %v, %v; want the range 0.2", s, ok)
	}
}

func TestGeomean(t *testing.T) {
	if got := geomean([]float64{0.5, 2}); !near(got, 1) {
		t.Errorf("geomean = %v, want 1", got)
	}
}

func TestJudgeBounds(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "jobs_per_s", Better: "higher", Bound: 0.10}
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m, m * 1.01} }
	for _, c := range []struct {
		name       string
		def        metricDef
		base, cand []float64
		want       string
	}{
		{"same", lower, steady(10), steady(10), verdictOK},
		{"slower within bound", lower, steady(10), steady(10.9), verdictOK},
		{"slower beyond bound", lower, steady(10), steady(11.2), verdictRegressed},
		{"faster", lower, steady(10), steady(5), verdictOK},
		{"throughput drop beyond bound", higher, steady(100), steady(85), verdictRegressed},
		{"throughput rise", higher, steady(100), steady(150), verdictOK},
		{"spread wider than bound", lower, []float64{8, 9, 11, 12}, steady(10), verdictUnresolved},
		{"single samples", lower, []float64{10}, []float64{10.5}, verdictOK},
	} {
		if _, got := judge(c.def, c.base, c.cand); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	worse, _ := judge(lower, steady(10), steady(11))
	if !near(worse, 0.1) {
		t.Errorf("worse = %v, want 0.1 of the base median", worse)
	}
}

func TestCompareReportsFlagsRegressionAndFailures(t *testing.T) {
	mk := func(wall float64, failed int) []*report {
		r := &report{Workload: "suite_par", Attempted: 42, Failed: failed, EndToEnd: map[string]sampleSet{}}
		r.set("wall_s", []float64{wall, wall * 1.01, wall * 0.99})
		return []*report{r}
	}
	var out strings.Builder
	if code := compareReports(&out, mk(5, 0), mk(5.1, 0)); code != 0 {
		t.Errorf("2 %% slower: exit %d, want 0\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, mk(5, 0), mk(7, 0)); code != 1 || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("40 %% slower: exit %d, want 1 and a regressed row\n%s", code, out.String())
	}
	out.Reset()
	if code := compareReports(&out, mk(5, 0), mk(5, 1)); code != 1 {
		t.Errorf("failed_share rose: exit %d, want 1\n%s", code, out.String())
	}
}

func TestSelfTime(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 0, Parent: -1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "op", Start: 10 * ms, End: 50 * ms},
		{ID: 2, Parent: 0, Name: "op", Start: 40 * ms, End: 90 * ms}, // overlaps span 1: covered time counts once
		{ID: 3, Parent: 1, Name: "aiger.read", Start: 10 * ms, End: 15 * ms},
		{ID: 4, Parent: 1, Name: "optimize", Start: 15 * ms, End: 45 * ms},
		{ID: 5, Parent: 2, Name: "optimize", Start: 30 * ms, End: 95 * ms}, // sticks out of its parent: clipped
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 20 * ms, 1: 5 * ms, 2: 0, 3: 5 * ms, 4: 30 * ms, 5: 65 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, time.Duration(self[id]), time.Duration(w))
		}
	}
	if got := selfByName(spans)["optimize"]; got != 95*time.Millisecond {
		t.Errorf("self time of optimize = %v, want 95ms", got)
	}
	if got := unspannedRatio(spans, "pass"); !near(got, 0.2) {
		t.Errorf("unspanned ratio = %v, want 0.2", got)
	}
}

func TestTracerOffIsNil(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Errorf("nil tracer recorded something")
	}
}

func TestDigestUnstable(t *testing.T) {
	pass := func(digests ...byte) passResult {
		p := passResult{}
		for _, d := range digests {
			p.Ops = append(p.Ops, opResult{Digest: [32]byte{d}})
		}
		return p
	}
	passes := []passResult{pass(1, 2, 3), pass(1, 9, 3), pass(1, 8, 3)}
	if got := digestUnstable(passes, 3); got != 1 {
		t.Errorf("digestUnstable = %d, want 1 (only the second input changes)", got)
	}
}

func TestSeedMovesOnlyTheMtMInputs(t *testing.T) {
	a, err := suiteInputs(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := suiteInputs(1, 1, nil)
	b, _ := suiteInputs(1, 2, nil)
	if len(a) != 14 {
		t.Fatalf("suite has %d inputs, want 14", len(a))
	}
	for i := range a {
		if string(a[i].AIGER) != string(again[i].AIGER) {
			t.Errorf("%s: same seed, different bytes", a[i].Name)
		}
		_, mtm := mtmSeeds[a[i].Name]
		if differs := string(a[i].AIGER) != string(b[i].AIGER); differs != mtm {
			t.Errorf("%s: differs between seeds = %v, want %v", a[i].Name, differs, mtm)
		}
	}
}

func TestVerifierCatchesWrongOutput(t *testing.T) {
	ins, err := suiteInputs(1, 1, []string{"sixteen", "mem_ctrl"})
	if err != nil {
		t.Fatal(err)
	}
	v := newVerifier(1)
	check := func(out []byte, fullCEC bool) verdict { return v.check(&ins[0], out, sha256.Sum256(out), fullCEC) }
	if vd := check(ins[0].AIGER, true); vd.Err != nil || vd.Ands == 0 {
		t.Errorf("input against itself: %+v", vd)
	}
	if vd := check(ins[1].AIGER, false); vd.Err == nil {
		t.Errorf("another circuit's bytes passed verification")
	}
	if vd := check(ins[0].AIGER[:len(ins[0].AIGER)/2], false); vd.Err == nil {
		t.Errorf("truncated bytes passed verification")
	}
}

// BENCHMARK.json at the repository root is the contract with the driver; it
// must name exactly the catalogue's workloads and metrics.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []workloadDef
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the catalogue", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w != workloads[i] {
			t.Errorf("workload %d: %+v, catalogue %+v", i, w, workloads[i])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the catalogue", len(got), kind, len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d: %+v, catalogue %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != w.Bound) {
				t.Errorf("%s metric %s: bound %v, catalogue %v", kind, g.Name, g.Bound, w.Bound)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, endToEnd, true)
	check("per-layer", doc.PerLayer, perLayer, false)
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("too many metrics for the contract: %d end-to-end, %d per-layer", len(doc.EndToEnd), len(doc.PerLayer))
	}
}

// TestSmoke runs every workload at -smoke size, timed and traced, the way
// the driver does: it keeps the harness compiling, running and verifying.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns aigred")
	}
	w := runtime.NumCPU()
	if w > 4 {
		w = 4
	}
	ctx, cancel := context.WithTimeout(context.Background(), 9*time.Minute) // the race detector slows the engines about tenfold
	defer cancel()
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{Workload: wl.Name, Seed: 1, Seconds: 0.5, Trace: trace, Smoke: true, W: w}
			rep, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d failed of %d: %v", wl.Name, trace, rep.Failed, rep.Attempted, rep.Failures)
			}
			var line struct {
				Correct   bool
				Attempted int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(rep.resultLine()), &line); err != nil {
				t.Fatalf("%s: result line: %v", wl.Name, err)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(line.Metrics) != len(want) || !line.Correct {
				t.Errorf("%s trace=%v: %d metrics, want %d; correct=%v", wl.Name, trace, len(line.Metrics), len(want), line.Correct)
			}
			for _, d := range want {
				m, ok := line.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s missing or unit %q", wl.Name, trace, d.Name, m.Unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", wl.Name, d.Name, m.Value)
				}
			}
			if trace && len(rep.Spans) == 0 {
				t.Errorf("%s: traced run recorded no spans", wl.Name)
			}
		}
	}
}
