package flow

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/cec"
	"aigre/internal/gpu"
)

func TestParse(t *testing.T) {
	cmds, err := Parse(Resyn2)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b"}
	if len(cmds) != len(want) {
		t.Fatalf("cmds = %v", cmds)
	}
	for i := range want {
		if cmds[i] != want[i] {
			t.Fatalf("cmds = %v", cmds)
		}
	}
	if _, err := Parse("b; frobnicate"); err == nil {
		t.Error("unknown command accepted")
	}
	if _, err := Parse("  ;  "); err == nil {
		t.Error("empty script accepted")
	}
}

func testAIG() *aig.AIG {
	rng := rand.New(rand.NewSource(42))
	return aig.Random(rng, 10, 600, 6).Rehash()
}

func TestSequentialResyn2PreservesFunctionAndImproves(t *testing.T) {
	a := testAIG()
	res, err := Run(context.Background(), nil, a, Resyn2, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AIG.NumAnds() > a.NumAnds() {
		t.Errorf("resyn2 grew the AIG: %d -> %d", a.NumAnds(), res.AIG.NumAnds())
	}
	eq, err := cec.Check(a, res.AIG, cec.Options{})
	if err != nil || !eq.Equivalent {
		t.Fatalf("equivalence: %+v %v", eq, err)
	}
	if len(res.Timings) != 10 {
		t.Errorf("timings = %d commands", len(res.Timings))
	}
}

func TestParallelResyn2PreservesFunction(t *testing.T) {
	a := testAIG()
	res, err := Run(context.Background(), gpu.New(0), a, Resyn2, Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := cec.Check(a, res.AIG, cec.Options{})
	if err != nil || !eq.Equivalent {
		t.Fatalf("equivalence: %+v %v", eq, err)
	}
	if res.AIG.NumAnds() > a.NumAnds() {
		t.Errorf("parallel resyn2 grew the AIG: %d -> %d", a.NumAnds(), res.AIG.NumAnds())
	}
	if res.Modeled <= 0 {
		t.Errorf("no modeled time recorded")
	}
}

func TestRfResynBothModes(t *testing.T) {
	a, _ := bench.ByName("sin", 1)
	seq, err := Run(context.Background(), nil, a, RfResyn, Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), gpu.New(0), a, RfResyn, Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]*aig.AIG{"seq": seq.AIG, "par": par.AIG} {
		eq, err := cec.Check(a, out, cec.Options{})
		if err != nil || !eq.Equivalent {
			t.Fatalf("%s: %+v %v", name, eq, err)
		}
		if out.NumAnds() >= a.NumAnds() {
			t.Errorf("%s rf_resyn did not reduce: %d -> %d", name, a.NumAnds(), out.NumAnds())
		}
	}
}

func TestBreakdownAggregation(t *testing.T) {
	a := testAIG()
	res, err := Run(context.Background(), gpu.New(0), a, "b; rf; rwz", Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	bd := Breakdown(res.Timings)
	if bd["b"] <= 0 || bd["rf"] <= 0 || bd["rw"] <= 0 {
		t.Errorf("breakdown missing entries: %v", bd)
	}
	if _, ok := bd["dedup"]; !ok {
		t.Errorf("dedup not tracked")
	}
	wd := BreakdownWall(res.Timings)
	if wd["rf"] <= 0 {
		t.Errorf("wall breakdown missing rf")
	}
}

func TestBalanceCommandMatchesLevels(t *testing.T) {
	// After b, parallel and sequential runs must agree on levels
	// (Property 3 at the flow level).
	a := testAIG()
	seq, _ := Run(context.Background(), nil, a, "b", Config{})
	par, _ := Run(context.Background(), gpu.New(0), a, "b", Config{Parallel: true})
	if seq.AIG.Levels() != par.AIG.Levels() {
		t.Errorf("levels differ: %d vs %d", seq.AIG.Levels(), par.AIG.Levels())
	}
}

// TestPerCommandKernelBreakdown checks the profiler threading: every
// parallel command carries a per-kernel breakdown whose modeled times sum to
// the command's Modeled + DedupModeled exactly, and the union of all
// breakdowns reconciles with the device's total profile.
func TestPerCommandKernelBreakdown(t *testing.T) {
	a := testAIG()
	d := gpu.New(2)
	res, err := Run(context.Background(), d, a, "b; rw; rfz", Config{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	var sumAll time.Duration
	for _, ct := range res.Timings {
		if len(ct.Kernels) == 0 {
			t.Fatalf("command %q has no kernel breakdown", ct.Command)
		}
		perCmd := gpu.TotalProfile(ct.Kernels).Modeled
		if perCmd != ct.Modeled+ct.DedupModeled {
			t.Errorf("command %q: kernel sum %v != modeled %v + dedup %v",
				ct.Command, perCmd, ct.Modeled, ct.DedupModeled)
		}
		sumAll += perCmd
		if ct.Command != "b" {
			found := false
			for _, k := range ct.Kernels {
				if strings.HasPrefix(k.Kernel, "dedup/") {
					found = true
				}
			}
			if found == false {
				t.Errorf("command %q breakdown lacks dedup kernels: %v", ct.Command, ct.Kernels)
			}
		}
	}
	if total := d.Stats().ModeledTime; sumAll != total {
		t.Errorf("per-command kernel sums %v != device modeled total %v", sumAll, total)
	}
	if got := gpu.TotalProfile(d.Profile()).Modeled; got != d.Stats().ModeledTime {
		t.Errorf("device profile total %v != stats modeled %v", got, d.Stats().ModeledTime)
	}
}

// TestSequentialZeroGainCommands checks that rwz and rfz reach the
// sequential rw/rf engines with zero gain: a zero-gain run must still be
// equivalent and can only differ by accepting zero-gain replacements.
func TestSequentialZeroGainCommands(t *testing.T) {
	a := testAIG()
	res, err := Run(context.Background(), nil, a, "rwz; rfz", Config{})
	if err != nil {
		t.Fatal(err)
	}
	eq, err := cec.Check(a, res.AIG, cec.Options{})
	if err != nil || !eq.Equivalent {
		t.Fatalf("zero-gain sequential run not equivalent: %+v %v", eq, err)
	}
	if res.AIG.NumAnds() > a.NumAnds() {
		t.Errorf("zero-gain run grew the AIG: %d -> %d", a.NumAnds(), res.AIG.NumAnds())
	}
}
