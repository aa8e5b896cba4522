package flow

import (
	"context"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/balance"
	"aigre/internal/bench"
	"aigre/internal/cec"
	"aigre/internal/gpu"
)

// TestSuiteIntegration is the end-to-end check over real benchmark
// families: for a representative subset of the paper's suite, both
// execution modes of rf_resyn must preserve the function (CEC), parallel
// balancing must reproduce sequential levels exactly (Property 3), and the
// parallel flow must not increase area.
func TestSuiteIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("suite integration is a multi-second test")
	}
	names := []string{"twenty", "div", "multiplier", "voter", "vga_lcd"}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			a, ok := bench.ByName(name, 1)
			if !ok {
				t.Fatalf("unknown benchmark %s", name)
			}
			// Property 3 on the real circuit.
			seqB, _ := balance.Sequential(a)
			parB, _ := balance.Parallel(gpu.New(0), a)
			if seqB.Levels() != parB.Levels() {
				t.Fatalf("Property 3 violated: %d vs %d levels", seqB.Levels(), parB.Levels())
			}
			// Full sequences in both modes.
			seq, err := Run(context.Background(), nil, a, RfResyn, Config{})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Run(context.Background(), gpu.New(0), a, RfResyn, Config{Parallel: true})
			if err != nil {
				t.Fatal(err)
			}
			if par.AIG.NumAnds() > a.NumAnds() {
				t.Errorf("parallel rf_resyn grew the AIG: %d -> %d", a.NumAnds(), par.AIG.NumAnds())
			}
			for mode, out := range map[string]*aig.AIG{"sequential": seq.AIG, "parallel": par.AIG} {
				res, err := cec.Check(a, out, cec.Options{})
				if err != nil {
					t.Fatalf("%s CEC inconclusive: %v", mode, err)
				}
				if !res.Equivalent {
					t.Fatalf("%s rf_resyn NOT equivalent (output %d)", mode, res.FailingOutput)
				}
			}
		})
	}
}
