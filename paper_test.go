package aigre_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"aigre"
	"aigre/internal/alloctest"
	"aigre/internal/bench"
	"aigre/internal/flow"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
	"aigre/internal/refactor"
)

var updatePaper = flag.Bool("update", false, "rewrite "+paperGolden+" and the EXPERIMENTS.md blocks from TestPaperClaims' output")

const paperGolden = "testdata/paper_claims.golden"

// TestPaperClaims is the one way to regenerate the paper's Section V results
// (Tables I-III, Figs. 7-8) and the resubstitution extension: it runs the 14
// suite families at scale 1 and the doubled multiplier sweep on one worker,
// asserts the shape of each claim with its tolerance (one subtest per claim),
// and prints the paper-vs-measured tables under -v. Assertions read only
// modeled device time, exact at one worker (TestCommandGoldens pins it to the
// nanosecond), and AND and level counts; nothing printed or asserted reads a
// wall clock, so the tables are identical run to run. The output is pinned:
// its three blocks (claims, families, sweep) must equal testdata's golden and
// the marked blocks of EXPERIMENTS.md, which explains them; -update rewrites
// both.
func TestPaperClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("paper tables skipped in -short mode")
	}
	if alloctest.RaceEnabled {
		t.Skip("paper tables skipped under -race; check.sh runs them without")
	}
	m := measurePaper(t)
	var summary strings.Builder
	for _, c := range paperClaims {
		got, ok := c.check(m)
		mark := "ok"
		if !ok {
			mark = "FAIL"
		}
		fmt.Fprintf(&summary, "%-4s %-4s %s\n     paper %s | measured %s | tolerance %s\n",
			c.name, mark, c.claim, c.paper, got, c.tol)
		t.Run(c.name, func(t *testing.T) {
			if !ok {
				t.Errorf("%s: paper %s, measured %s, tolerance %s", c.claim, c.paper, got, c.tol)
			}
		})
	}
	blocks := []paperBlock{{"claims", summary.String()}, {"families", m.familyTable()}, {"sweep", m.sweepTable()}}
	if testing.Verbose() {
		fmt.Printf("--- paper claims (scale 1, Workers 1) ---\n")
		for _, b := range blocks {
			fmt.Printf("%s\n", b.text)
		}
	}
	checkPaperGolden(t, blocks)
}

// paperBlock is one block of TestPaperClaims' output.
type paperBlock struct{ name, text string }

// marked renders a block as the golden and EXPERIMENTS.md carry it: a fenced
// code block between a begin and an end comment.
func (b paperBlock) marked() string {
	return fmt.Sprintf("<!-- begin paper_claims: %s -->\n```\n%s```\n<!-- end paper_claims: %s -->\n", b.name, b.text, b.name)
}

// checkPaperGolden fails t unless the golden and every marked block of
// EXPERIMENTS.md equal the blocks; under -update it rewrites both instead.
func checkPaperGolden(t *testing.T, blocks []paperBlock) {
	t.Helper()
	var golden strings.Builder
	for _, b := range blocks {
		golden.WriteString(b.marked())
	}
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	experiments := string(doc)
	for _, b := range blocks {
		begin, end := fmt.Sprintf("<!-- begin paper_claims: %s -->", b.name), fmt.Sprintf("<!-- end paper_claims: %s -->\n", b.name)
		i, j := strings.Index(experiments, begin), strings.Index(experiments, end)
		if i < 0 || j < i {
			t.Fatalf("EXPERIMENTS.md has no %q ... %q block", begin, strings.TrimSpace(end))
		}
		if cur := experiments[i : j+len(end)]; cur != b.marked() {
			if !*updatePaper {
				t.Errorf("EXPERIMENTS.md block %q differs from the output; rerun with -update and review the diff:\n%s", b.name, b.text)
			}
			experiments = experiments[:i] + b.marked() + experiments[j+len(end):]
		}
	}
	if *updatePaper {
		if err := os.WriteFile(paperGolden, []byte(golden.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("EXPERIMENTS.md", []byte(experiments), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != golden.String() {
		t.Errorf("%s differs from the output; rerun with -update and review the diff", paperGolden)
	}
}

// paperFamily is what one suite family measures: the host-sequential part of
// one parallel pass of each Table I algorithm, and the sequential (ABC-style)
// and parallel result of each Table II/III row.
type paperFamily struct {
	name string
	in   aigre.Stats
	// rwSeq, replSeq and rfSeq are the modeled host-sequential time of GPU
	// rw [9], of rf with sequential replacement, and of the proposed rf.
	rwSeq, replSeq, rfSeq time.Duration
	seq, par              map[string]aigre.Result // keyed by paperRows name
}

// scalePoint is one size of the Fig. 7 sweep: parallel rf_resyn of the
// 12-bit multiplier doubled d times.
type scalePoint struct {
	ands, levels, launches int
	modeled                time.Duration
}

type paperData struct {
	fams  []paperFamily
	sweep []scalePoint
	// mult holds the multiplier family's ANDs after resyn2 and compress2rs:
	// mult[0] sequential, mult[1] parallel, each {resyn2, compress2rs}.
	mult [2][2]int
}

// paperRows are the rows of Tables II and III. The parallel rf row is the
// paper's "GPU rf (x2)", the script "rf; rf", against one sequential drf
// pass.
var paperRows = []struct {
	name string
	run  func(ctx context.Context, n *aigre.Network, o aigre.Options) (aigre.Result, error)
}{
	{"b", func(ctx context.Context, n *aigre.Network, o aigre.Options) (aigre.Result, error) {
		return n.Balance(ctx, o)
	}},
	{"rf", func(ctx context.Context, n *aigre.Network, o aigre.Options) (aigre.Result, error) {
		if o.Parallel {
			return n.Run(ctx, "rf; rf", o)
		}
		return n.Refactor(ctx, o)
	}},
	{"rf_resyn", func(ctx context.Context, n *aigre.Network, o aigre.Options) (aigre.Result, error) {
		return n.RfResyn(ctx, o)
	}},
	{"resyn2", func(ctx context.Context, n *aigre.Network, o aigre.Options) (aigre.Result, error) {
		return n.Resyn2(ctx, o)
	}},
}

// measurePaper runs every measurement once, each family and the Fig. 7 sweep
// as a parallel subtest of "measure"; the claims only read the result. Every
// run has a one-worker device of its own, so its modeled time does not depend
// on what runs beside it, and one fresh cache serves them all: results and
// modeled time are bit-identical with or without it.
func measurePaper(t *testing.T) *paperData {
	ctx := context.Background()
	cache, replCache := aigre.NewCache(), rcache.New()
	opts := func(parallel bool) aigre.Options {
		return aigre.Options{Parallel: parallel, Workers: 1, Cache: cache}
	}
	// must(t)(run) fails t on an error or an incident (a degraded run's
	// numbers are not the engine's).
	must := func(t *testing.T) func(aigre.Result, error) aigre.Result {
		return func(res aigre.Result, err error) aigre.Result {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Incidents) > 0 {
				t.Fatalf("%s: %v", res.AIG.Name(), res.Incidents)
			}
			return res
		}
	}
	seqPart := func(res aigre.Result) time.Duration { return gpu.TotalProfile(res.Profile).Seq }
	ands := func(res aigre.Result) int { return res.AIG.Stats().Nodes }

	cases := bench.Suite(1)
	m := &paperData{fams: make([]paperFamily, len(cases))}
	t.Run("measure", func(t *testing.T) {
		for i, c := range cases {
			t.Run(c.Name, func(t *testing.T) {
				t.Parallel()
				a := c.Build()
				n := aigre.FromInternal(a)
				f := paperFamily{name: c.Name, in: n.Stats(),
					seq: map[string]aigre.Result{}, par: map[string]aigre.Result{}}
				f.rwSeq = seqPart(must(t)(n.Rewrite(ctx, opts(true))))
				f.rfSeq = seqPart(must(t)(n.Refactor(ctx, opts(true))))
				d := gpu.New(1)
				refactor.ParallelSeqReplace(d, a, refactor.Options{Cache: replCache})
				f.replSeq = gpu.TotalProfile(d.Profile()).Seq
				for _, r := range paperRows {
					f.seq[r.name] = must(t)(r.run(ctx, n, opts(false)))
					f.par[r.name] = must(t)(r.run(ctx, n, opts(true)))
				}
				if c.Name == "multiplier" {
					m.mult[0] = [2]int{ands(f.seq["resyn2"]), ands(must(t)(n.CompressRS(ctx, opts(false))))}
					m.mult[1] = [2]int{ands(f.par["resyn2"]), ands(must(t)(n.CompressRS(ctx, opts(true))))}
				}
				m.fams[i] = f
			})
		}
		t.Run("fig7", func(t *testing.T) {
			t.Parallel()
			a := bench.Multiplier(12)
			for d := 0; d <= 6; d++ {
				if d > 0 {
					a = bench.Double(a)
				}
				tot := gpu.TotalProfile(must(t)(aigre.FromInternal(a).RfResyn(ctx, opts(true))).Profile)
				m.sweep = append(m.sweep, scalePoint{ands: a.NumAnds(), levels: a.Levels(),
					launches: tot.Launches, modeled: tot.Modeled})
			}
		})
	})
	if t.Failed() {
		t.FailNow()
	}
	return m
}

// paperClaims are the asserted claims, in the paper's order. check returns
// the measured value as printed and whether it is inside the tolerance.
var paperClaims = []struct {
	name, claim, paper, tol string
	check                   func(m *paperData) (string, bool)
}{
	{"T1", "Table I: host-sequential part of one parallel pass, suite sums over GPU rw (proposed rf / rf w/ seq. replace / GPU rw)",
		"0.6 / 1.6 / 1.0", "proposed < seq. replace and proposed < rw",
		func(m *paperData) (string, bool) {
			var rw, repl, rf time.Duration
			for _, f := range m.fams {
				rw, repl, rf = rw+f.rwSeq, repl+f.replSeq, rf+f.rfSeq
			}
			norm := func(d time.Duration) float64 { return d.Seconds() / rw.Seconds() }
			return fmt.Sprintf("%.2f / %.2f / %.2f", norm(rf), norm(repl), norm(rw)), rf < repl && rf < rw
		}},
	{"T2a", "Table II, Property 3: parallel b = sequential b in ANDs and levels, per family",
		"levels 1.000", "equal on all 14",
		func(m *paperData) (string, bool) {
			var differ []string
			for _, f := range m.fams {
				s, p := f.seq["b"].AIG.Stats(), f.par["b"].AIG.Stats()
				if s.Nodes != p.Nodes || s.Levels != p.Levels {
					differ = append(differ, fmt.Sprintf("%s %d/%d vs %d/%d", f.name, p.Nodes, p.Levels, s.Nodes, s.Levels))
				}
			}
			got := fmt.Sprintf("equal on %d of %d", len(m.fams)-len(differ), len(m.fams))
			if len(differ) > 0 {
				got += " (" + strings.Join(differ, ", ") + ")"
			}
			return got, len(differ) == 0 && len(m.fams) == 14
		}},
	{"T2b", "Table II: GPU rf x2 vs sequential drf, geomean nodes / levels",
		"0.983 / 0.980", "<= 1.000 / <= 1.000", qualityClaim("rf", 1.0, 1.0)},
	{"T3a", "Table III: GPU rf_resyn vs sequential, geomean nodes / levels",
		"0.996 / 1.000", "<= 1.000 / <= 1.000", qualityClaim("rf_resyn", 1.0, 1.0)},
	{"T3b", "Table III: GPU resyn2 vs sequential, geomean nodes / levels",
		"1.003 / 0.982", "<= 1.010 / <= 1.000", qualityClaim("resyn2", 1.01, 1.0)},
	{"F7a", "Fig. 7: modeled rf_resyn time per AND falls at every doubling of the multiplier",
		"rising accel", "falls at each doubling",
		func(m *paperData) (string, bool) {
			ok := true
			for i := 1; i < len(m.sweep); i++ {
				ok = ok && m.sweep[i].perAnd() < m.sweep[i-1].perAnd()
			}
			first, last := m.sweep[0], m.sweep[len(m.sweep)-1]
			return fmt.Sprintf("%.3g -> %.3g us/AND over %d -> %d ANDs", first.perAnd(), last.perAnd(), first.ands, last.ands), ok
		}},
	{"F7b", "Fig. 7: below the crossover modeled time is launch overhead, growing < 1.10x per doubling",
		"< 1x accel below ~30k nodes", "< 1.10x per doubling",
		func(m *paperData) (string, bool) {
			lo, hi := math.Inf(1), 0.0
			for i := 1; i < len(m.sweep); i++ {
				g := m.sweep[i].growth(m.sweep[i-1])
				lo, hi = math.Min(lo, g), math.Max(hi, g)
			}
			first, last := m.sweep[0], m.sweep[len(m.sweep)-1]
			return fmt.Sprintf("%.3f-%.3fx per doubling, %d -> %d launches", lo, hi, first.launches, last.launches), hi < 1.10
		}},
	{"F8a", "Fig. 8: b is the largest per-command modeled share of GPU resyn2, per family",
		"b occupies a large proportion", "largest on all 14",
		func(m *paperData) (string, bool) {
			largest := 0
			for _, f := range m.fams {
				bd := flow.Breakdown(f.par["resyn2"].Timings)
				top := true
				for k, v := range bd {
					top = top && (k == "b" || v < bd["b"])
				}
				if top {
					largest++
				}
			}
			return fmt.Sprintf("largest on %d of %d", largest, len(m.fams)), largest == 14 && len(m.fams) == 14
		}},
	{"F8b", "Fig. 8: b+dedup share on every deep family (input >= 900 levels) > on every shallow one (< 100 levels)",
		"significant for large delays", "deep min > shallow max, both scripts",
		func(m *paperData) (string, bool) {
			var parts []string
			ok := true
			for _, script := range []string{"rf_resyn", "resyn2"} {
				deepMin, shallowMax, deep, shallow := math.Inf(1), 0.0, 0, 0
				for _, f := range m.fams {
					s := f.levelWiseShare(script)
					switch {
					case f.in.Levels >= 900:
						deepMin, deep = math.Min(deepMin, s), deep+1
					case f.in.Levels < 100:
						shallowMax, shallow = math.Max(shallowMax, s), shallow+1
					}
				}
				ok = ok && deep > 0 && shallow > 0 && deepMin > shallowMax
				parts = append(parts, fmt.Sprintf("%s min %.1f%% (%d deep) vs max %.1f%% (%d shallow)",
					script, 100*deepMin, deep, 100*shallowMax, shallow))
			}
			return strings.Join(parts, "; "), ok
		}},
	{"A4", "Extension (future work): compress2rs ends below resyn2 on multiplier, in both modes",
		"future-work extension", "fewer ANDs in both modes",
		func(m *paperData) (string, bool) {
			s, p := m.mult[0], m.mult[1]
			return fmt.Sprintf("%d vs %d sequential, %d vs %d parallel", s[1], s[0], p[1], p[0]), s[1] < s[0] && p[1] < p[0]
		}},
}

// qualityClaim asserts the suite geomean of parallel / sequential ANDs and
// levels of one row.
func qualityClaim(row string, maxNodes, maxLevels float64) func(m *paperData) (string, bool) {
	return func(m *paperData) (string, bool) {
		nodes, levels := m.geomean(row)
		return fmt.Sprintf("%.3f / %.3f", nodes, levels), nodes <= maxNodes && levels <= maxLevels
	}
}

// geomean returns the suite geomean of parallel / sequential ANDs and levels
// of one row.
func (m *paperData) geomean(row string) (nodes, levels float64) {
	for _, f := range m.fams {
		s, p := f.seq[row].AIG.Stats(), f.par[row].AIG.Stats()
		nodes += math.Log(float64(p.Nodes) / float64(s.Nodes))
		levels += math.Log(float64(p.Levels) / float64(s.Levels))
	}
	k := float64(len(m.fams))
	return math.Exp(nodes / k), math.Exp(levels / k)
}

// levelWiseShare is the b + dedup share of the modeled time of one parallel
// script: the two level-wise passes of Fig. 8.
func (f paperFamily) levelWiseShare(script string) float64 {
	var total time.Duration
	bd := flow.Breakdown(f.par[script].Timings)
	for _, v := range bd {
		total += v
	}
	return (bd["b"] + bd["dedup"]).Seconds() / total.Seconds()
}

func (p scalePoint) perAnd() float64 { return p.modeled.Seconds() * 1e6 / float64(p.ands) }

func (p scalePoint) growth(prev scalePoint) float64 {
	return p.modeled.Seconds() / prev.modeled.Seconds()
}

// familyTable prints Tables II/III per family (ANDs/levels, sequential |
// parallel), their geomeans and the Fig. 8 level-wise shares.
func (m *paperData) familyTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-10s", "family", "input")
	for _, r := range paperRows {
		fmt.Fprintf(&b, " %-23s", r.name+" seq | par")
	}
	b.WriteString(" b+dedup rf_resyn | resyn2\n")
	for _, f := range m.fams {
		fmt.Fprintf(&b, "%-12s %-10s", f.name, fmt.Sprintf("%d/%d", f.in.Nodes, f.in.Levels))
		for _, r := range paperRows {
			s, p := f.seq[r.name].AIG.Stats(), f.par[r.name].AIG.Stats()
			fmt.Fprintf(&b, " %-23s", fmt.Sprintf("%d/%d | %d/%d", s.Nodes, s.Levels, p.Nodes, p.Levels))
		}
		fmt.Fprintf(&b, " %5.1f%% | %5.1f%%\n", 100*f.levelWiseShare("rf_resyn"), 100*f.levelWiseShare("resyn2"))
	}
	fmt.Fprintf(&b, "%-23s", "geomean par/seq")
	for _, r := range paperRows {
		nodes, levels := m.geomean(r.name)
		fmt.Fprintf(&b, " %-23s", fmt.Sprintf("%.3f / %.3f", nodes, levels))
	}
	b.WriteString("\n")
	return b.String()
}

// sweepTable prints the Fig. 7 sweep: modeled time, launches and the share
// of modeled time that is launch overhead.
func (m *paperData) sweepTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-7s %-9s %-14s %-8s %-8s %s\n", "ANDs", "levels", "launches", "modeled", "us/AND", "growth", "launch overhead")
	for i, p := range m.sweep {
		growth := "-"
		if i > 0 {
			growth = fmt.Sprintf("%.3fx", p.growth(m.sweep[i-1]))
		}
		overhead := time.Duration(p.launches) * gpu.DefaultModel.LaunchOverhead
		fmt.Fprintf(&b, "%-8d %-7d %-9d %-14v %-8.3g %-8s %.1f%%\n", p.ands, p.levels, p.launches, p.modeled,
			p.perAnd(), growth, 100*overhead.Seconds()/p.modeled.Seconds())
	}
	return b.String()
}
