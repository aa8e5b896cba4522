package flow

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"aigre/internal/aig"
	"aigre/internal/cec"
	"aigre/internal/gpu"
)

// TestFaultInjectionRecovery drives a deterministic fault into each parallel
// command's kernels mid-script and asserts the guarantee of the guarded
// layer: the run completes, the output is equivalent to the input and passes
// the structural invariants, and the incident is recorded with the command,
// failing kernel, and action taken.
func TestFaultInjectionRecovery(t *testing.T) {
	cases := []struct {
		name      string
		script    string
		plan      gpu.FaultPlan
		wantCmd   string
		wantStage string
	}{
		{"refactor-kernel-panic", RfResyn,
			gpu.FaultPlan{Kernel: "refactor/resynth", Nth: 1, Kind: gpu.FaultPanic}, "rf", "launch"},
		{"balance-kernel-panic", RfResyn,
			gpu.FaultPlan{Kernel: "balance/insert-pass", Nth: 1, Kind: gpu.FaultPanic}, "b", "launch"},
		{"rewrite-kernel-panic", "b; rw; rwz; b",
			gpu.FaultPlan{Kernel: "rewrite/evaluate", Nth: 1, Kind: gpu.FaultPanic}, "rw", "launch"},
		{"dedup-kernel-panic", RfResyn,
			gpu.FaultPlan{Kernel: "dedup/level", Nth: 1, Kind: gpu.FaultPanic}, "rf", "launch"},
		// A lost gather write leaves one subtree with no collected inputs, so
		// reconstruction rebuilds it as a constant — structurally valid but
		// functionally wrong, which only the equivalence gate can catch.
		{"balance-gather-corruption", RfResyn,
			gpu.FaultPlan{Kernel: "balance/gather", Nth: 1, Kind: gpu.FaultCorrupt}, "b", "equivalence"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			a := testAIG()
			d := gpu.New(4)
			d.InjectFaults(tc.plan)
			res, err := Run(context.Background(), a, tc.script, Config{Parallel: true, Device: d})
			if err != nil {
				t.Fatalf("guarded run failed outright: %v", err)
			}
			if d.FaultsArmed() != 0 {
				t.Fatalf("fault never fired (kernel %q not launched?)", tc.plan.Kernel)
			}
			if len(res.Incidents) != 1 {
				t.Fatalf("incidents = %+v, want exactly 1", res.Incidents)
			}
			inc := res.Incidents[0]
			if inc.Command != tc.wantCmd {
				t.Errorf("incident command = %q, want %q", inc.Command, tc.wantCmd)
			}
			if inc.Stage != tc.wantStage {
				t.Errorf("incident stage = %q, want %q (%s)", inc.Stage, tc.wantStage, inc)
			}
			if inc.Action != "retried-sequential" {
				t.Errorf("incident action = %q, want retried-sequential", inc.Action)
			}
			if tc.wantStage == "launch" && inc.Kernel == "" {
				t.Errorf("launch incident lacks kernel name: %s", inc)
			}
			if err := aig.Check(res.AIG); err != nil {
				t.Errorf("final output fails invariants: %v", err)
			}
			eq, err := cec.Check(a, res.AIG, cec.Options{})
			if err != nil || !eq.Equivalent {
				t.Errorf("final output not equivalent to input: %+v %v", eq, err)
			}
			if res.AIG.NumAnds() > a.NumAnds() {
				t.Errorf("degraded run grew the AIG: %d -> %d", a.NumAnds(), res.AIG.NumAnds())
			}
		})
	}
}

// TestFaultInjectionSequentialMode checks the non-parallel degradation path:
// with no sequential engine to fall back to, a failing command is skipped
// and the AIG rolls back to the checkpoint.
func TestGuardSkipsWhenBothEnginesFail(t *testing.T) {
	// An unknown command slips past Parse only through runGuarded directly;
	// both attempts must fail and the checkpoint must come back untouched.
	a := testAIG()
	cfg := Config{Parallel: true}.normalized()
	out, _, incs, err := runGuarded(context.Background(), a, "frobnicate", 3, cfg)
	if err != nil {
		t.Fatalf("non-cancellation failure surfaced as an error: %v", err)
	}
	if out != a {
		t.Errorf("skip did not return the checkpoint")
	}
	if len(incs) != 2 {
		t.Fatalf("incidents = %+v, want 2 (failed attempt + failed retry)", incs)
	}
	if incs[0].Action != "retried-sequential" || incs[1].Action != "skipped" {
		t.Errorf("actions = %q, %q", incs[0].Action, incs[1].Action)
	}
	if incs[0].Index != 3 || incs[1].Index != 3 {
		t.Errorf("incident indices = %d, %d, want 3", incs[0].Index, incs[1].Index)
	}
}

// TestRunSequentialUnknownCommandNoPanic pins the former
// panic("flow: unreachable command") as a plain error return: the zero
// Command of an unknown name fails in the executor on either engine.
func TestRunSequentialUnknownCommandNoPanic(t *testing.T) {
	ctx := context.Background()
	if _, _, err := execute(ctx, testAIG(), "frobnicate", commands["frobnicate"], 1, false, Config{}.normalized()); err == nil {
		t.Error("unknown command did not error")
	}
	cfg := Config{Parallel: true}.normalized()
	if _, _, err := execute(ctx, testAIG(), "frobnicate", commands["frobnicate"], 1, true, cfg); err == nil {
		t.Error("unknown parallel command did not error")
	}
}

// TestVerifyModeFullCheck runs the opt-in full equivalence gate end to end.
func TestVerifyModeFullCheck(t *testing.T) {
	a := testAIG()
	res, err := Run(context.Background(), a, "b; rf", Config{Parallel: true, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incidents) != 0 {
		t.Errorf("clean verified run recorded incidents: %+v", res.Incidents)
	}
	eq, err := cec.Check(a, res.AIG, cec.Options{})
	if err != nil || !eq.Equivalent {
		t.Fatalf("equivalence: %+v %v", eq, err)
	}
}

// TestCheckPassesAfterEveryCommand is the acceptance criterion that every
// command output in resyn2 and rf_resyn satisfies the structural invariants
// (the guard would skip a violating command, so a clean incident list plus a
// command count check proves it).
func TestCheckPassesAfterEveryCommand(t *testing.T) {
	for _, script := range []string{Resyn2, RfResyn} {
		for _, parallel := range []bool{false, true} {
			a := testAIG()
			res, err := Run(context.Background(), a, script, Config{Parallel: parallel})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Incidents) != 0 {
				t.Errorf("script %q parallel=%v: incidents %+v", script, parallel, res.Incidents)
			}
		}
	}
}

// TestDegradeLadder walks runGuarded's ladder (device engines, sequential
// engine, skip) with engines that fail on purpose, and pins the incident
// sequence, what network comes back, and whose time the command is charged.
func TestDegradeLadder(t *testing.T) {
	const nap = 5 * time.Millisecond
	ok := func(a *aig.AIG) *aig.AIG { return a.Clone() }
	wrong := func(a *aig.AIG) *aig.AIG { // structurally sound, functionally off: only the gate sees it
		time.Sleep(nap)
		out := a.Clone()
		out.SetPO(0, out.PO(0).Not())
		return out
	}
	bug := func(*aig.AIG) *aig.AIG { panic("boom") }
	type engine = func(*aig.AIG) *aig.AIG
	type want struct{ stage, kernel, action, class string }
	for _, c := range []struct {
		name     string
		parallel bool
		par, seq engine
		abort    bool // the device engine launches a kernel that panics
		cancel   bool // the device engine cancels the run, then launches
		incs     []want
		kept     bool          // the command's output is returned, not the checkpoint
		minWall  time.Duration // lower bound on the wall charged to the command
	}{
		{name: "clean-parallel", parallel: true, par: ok, seq: bug, kept: true},
		{name: "clean-sequential", seq: ok, kept: true},
		{name: "launch-fails", parallel: true, abort: true, seq: ok, kept: true,
			incs: []want{{"launch", "test/kernel", "retried-sequential", ClassTransient}}},
		{name: "gate-refutes", parallel: true, par: wrong, seq: ok, kept: true, minWall: nap,
			incs: []want{{"equivalence", "", "retried-sequential", ClassPermanent}}},
		{name: "both-fail", parallel: true, par: wrong, seq: bug, minWall: nap,
			incs: []want{{"equivalence", "", "retried-sequential", ClassPermanent}, {"panic", "", "skipped", ClassPermanent}}},
		{name: "sequential-fails", seq: wrong, minWall: nap,
			incs: []want{{"equivalence", "", "skipped", ClassPermanent}}},
		{name: "cancelled", parallel: true, cancel: true, seq: ok},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg := Config{Parallel: c.parallel}.normalized()
			if cfg.Device != nil {
				cfg.Device.Bind(ctx)
			}
			commands["test"] = Command{Kind: "test",
				Seq: func(a *aig.AIG, _ Config) *aig.AIG { return c.seq(a) },
				Par: func(d *gpu.Device, a *aig.AIG, _ Config) *aig.AIG {
					switch {
					case c.abort:
						d.Launch("test/kernel", 1, func(int) int64 { panic("kernel bug") })
					case c.cancel:
						cancel()
						d.Launch("test/kernel", 1, func(int) int64 { return 1 })
					}
					return c.par(a)
				}}
			defer delete(commands, "test")

			checkpoint := testAIG()
			out, tm, incs, err := runGuarded(ctx, checkpoint, "test", 4, cfg)
			if c.cancel {
				if !errors.Is(err, context.Canceled) || len(incs) != 0 || out != checkpoint {
					t.Fatalf("cancelled command: err %v, incidents %+v, checkpoint returned %v", err, incs, out == checkpoint)
				}
				return
			}
			if err != nil {
				t.Fatalf("a contained failure surfaced as an error: %v", err)
			}
			if (out != checkpoint) != c.kept {
				t.Errorf("returned the command's output = %v, want %v", out != checkpoint, c.kept)
			}
			if tm.Command != "test" || tm.Wall < c.minWall {
				t.Errorf("timing %+v: want command \"test\" charged at least %v (the failed attempt's wall)", tm, c.minWall)
			}
			var got []want
			for _, inc := range incs {
				if inc.Index != 4 || inc.Command != "test" || inc.Detail == "" || inc.Time.IsZero() {
					t.Errorf("incident %+v: want index 4, command \"test\", a detail and a time", inc)
				}
				got = append(got, want{inc.Stage, inc.Kernel, inc.Action, inc.Class})
			}
			if !slices.Equal(got, c.incs) {
				t.Errorf("incidents = %+v, want %+v", got, c.incs)
			}
		})
	}
}
