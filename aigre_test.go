package aigre_test

import (
	"bytes"
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"aigre"
	"aigre/internal/aiger"
	"aigre/internal/bench"
	"aigre/internal/gpu"
)

func buildAPICircuit(t testing.TB) *aigre.Network {
	n := aigre.New(8)
	rng := rand.New(rand.NewSource(3))
	acc := n.PI(0)
	for i := 1; i < 8; i++ {
		acc = n.AddAnd(acc, n.PI(i))
	}
	n.AddPO(acc)
	for o := 0; o < 3; o++ {
		x := n.PI(rng.Intn(8))
		sum := aigre.Const0
		for c := 0; c < 4; c++ {
			sum = n.AddOr(sum, n.AddAnd(x, n.PI(rng.Intn(8))))
		}
		n.AddPO(sum)
	}
	n.AddPO(n.AddMux(n.PI(0), n.PI(1), n.AddXor(n.PI(2), n.PI(3))))
	n.SetName("api-test")
	return n
}

func TestPublicAPIConstruction(t *testing.T) {
	n := buildAPICircuit(t)
	s := n.Stats()
	if s.PIs != 8 || s.POs != 5 || s.Nodes == 0 {
		t.Fatalf("stats = %+v", s)
	}
	if n.Name() != "api-test" {
		t.Errorf("name = %q", n.Name())
	}
}

func TestPublicAPIOptimizations(t *testing.T) {
	n := buildAPICircuit(t)
	for _, parallel := range []bool{false, true} {
		for name, run := range map[string]func() (aigre.Result, error){
			"balance": func() (aigre.Result, error) {
				return n.Balance(context.Background(), aigre.Options{Parallel: parallel})
			},
			"refactor": func() (aigre.Result, error) {
				return n.Run(context.Background(), "rf; rf", aigre.Options{Parallel: parallel})
			},
			"rewrite": func() (aigre.Result, error) {
				return n.Rewrite(context.Background(), aigre.Options{Parallel: parallel})
			},
			"resyn2": func() (aigre.Result, error) { return n.Resyn2(context.Background(), aigre.Options{Parallel: parallel}) },
			"rf_resyn": func() (aigre.Result, error) {
				return n.RfResyn(context.Background(), aigre.Options{Parallel: parallel})
			},
			"resub": func() (aigre.Result, error) { return n.Resub(context.Background(), aigre.Options{Parallel: parallel}) },
			"compress": func() (aigre.Result, error) {
				return n.CompressRS(context.Background(), aigre.Options{Parallel: parallel})
			},
		} {
			res, err := run()
			if err != nil {
				t.Fatalf("%s(parallel=%v): %v", name, parallel, err)
			}
			eq, err := res.AIG.EquivalentTo(n)
			if err != nil || !eq {
				t.Fatalf("%s(parallel=%v) not equivalent: %v", name, parallel, err)
			}
			if res.AIG.Stats().Nodes > n.Stats().Nodes {
				t.Errorf("%s(parallel=%v) grew the network", name, parallel)
			}
		}
	}
}

func TestPublicAPIBalanceLevelsAgree(t *testing.T) {
	n := aigre.FromInternal(bench.Sin(12))
	seq, err := n.Balance(context.Background(), aigre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := n.Balance(context.Background(), aigre.Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if seq.AIG.Stats().Levels != par.AIG.Stats().Levels {
		t.Errorf("Property 3 violated at the API level: %d vs %d",
			seq.AIG.Stats().Levels, par.AIG.Stats().Levels)
	}
}

func TestPublicAPIAIGERRoundTrip(t *testing.T) {
	n := buildAPICircuit(t)
	var buf bytes.Buffer
	if err := n.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := aigre.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	eq, err := back.EquivalentTo(n)
	if err != nil || !eq {
		t.Fatalf("round trip changed function: %v", err)
	}

	dir := t.TempDir()
	for _, name := range []string{"x.aig", "x.aag"} {
		path := filepath.Join(dir, name)
		if err := n.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		back, err := aigre.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if eq, err := back.EquivalentTo(n); err != nil || !eq {
			t.Fatalf("%s round trip changed function: %v", name, err)
		}
	}
}

// TestReadRehashesOnlyUncleanParses: Read keeps a Clean parse as it is, so a
// Clean AIGER reads back byte-identical, and rehashes any other parse:
// DeepNarrow(64, 40)'s chains c and c+32 coincide, so its 10,240 raw ANDs
// read back as 5,112, Clean.
func TestReadRehashesOnlyUncleanParses(t *testing.T) {
	var clean bytes.Buffer
	if err := aiger.WriteBinary(&clean, bench.Suite(1)[0].Build().Rehash()); err != nil {
		t.Fatal(err)
	}
	n, err := aigre.Read(bytes.NewReader(clean.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var back bytes.Buffer
	if err := n.Write(&back); err != nil {
		t.Fatal(err)
	}
	if !n.Internal().Clean() || !bytes.Equal(back.Bytes(), clean.Bytes()) {
		t.Errorf("a Clean AIGER did not read back byte-identical and Clean (Clean: %v)", n.Internal().Clean())
	}

	raw := bench.DeepNarrow(64, 40)
	if raw.NumAnds() != 10240 {
		t.Fatalf("DeepNarrow(64, 40) has %d ANDs, want 10,240", raw.NumAnds())
	}
	var deep bytes.Buffer
	if err := aiger.WriteBinary(&deep, raw); err != nil {
		t.Fatal(err)
	}
	if n, err = aigre.Read(&deep); err != nil {
		t.Fatal(err)
	}
	if a := n.Internal(); a.NumAnds() != 5112 || !a.Clean() {
		t.Errorf("DeepNarrow(64, 40) read back with %d ANDs (Clean: %v), want 5,112, Clean", a.NumAnds(), a.Clean())
	}
}

func TestPublicAPIRunScript(t *testing.T) {
	n := buildAPICircuit(t)
	res, err := n.Run(context.Background(), "b; rfz; b", aigre.Options{Parallel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timings) != 3 {
		t.Errorf("timings = %d", len(res.Timings))
	}
	if _, err := n.Run(context.Background(), "b; bogus", aigre.Options{}); err == nil {
		t.Error("invalid script accepted")
	}
}

func TestPublicAPIDedup(t *testing.T) {
	n := buildAPICircuit(t)
	res, err := n.Dedup(context.Background(), aigre.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eq, err := res.AIG.EquivalentTo(n); err != nil || !eq {
		t.Fatalf("dedup changed function: %v", err)
	}
}

func TestPublicAPIClone(t *testing.T) {
	n := buildAPICircuit(t)
	c := n.Clone()
	c.AddPO(aigre.Const1)
	if n.Stats().POs == c.Stats().POs {
		t.Error("clone not independent")
	}
}

// TestSingleAlgorithmGated checks that the single-algorithm methods are
// one-command scripts on the engine: a kernel fault is contained by the
// guarded runner like in any script — a panic as a launch incident, a
// corrupted balance as an equivalence incident — and the method returns an
// equivalent network, no error, and the full job record.
func TestSingleAlgorithmGated(t *testing.T) {
	n := aigre.FromInternal(bench.Multiplier(8))
	ctx := context.Background()
	for _, c := range []struct {
		name, spec, script, stage string
		run                       func(aigre.Options) (aigre.Result, error)
	}{
		// A lost gather write or reconstruction seed yields a structurally
		// valid, functionally wrong network that only the gate sees.
		{"balance-gather", "balance/gather:1:corrupt", "b", "equivalence", func(o aigre.Options) (aigre.Result, error) { return n.Balance(ctx, o) }},
		{"balance-recon-init", "balance/recon-init:1:corrupt", "b", "equivalence", func(o aigre.Options) (aigre.Result, error) { return n.Balance(ctx, o) }},
		{"balance-panic", "balance/insert-pass:1:panic", "b", "launch", func(o aigre.Options) (aigre.Result, error) { return n.Balance(ctx, o) }},
		{"rewrite", "rewrite/evaluate:1:panic", "rw", "launch", func(o aigre.Options) (aigre.Result, error) { return n.Rewrite(ctx, o) }},
		{"refactor", "refactor/resynth:1:panic", "rf", "launch", func(o aigre.Options) (aigre.Result, error) { return n.Refactor(ctx, o) }},
		// The parallel replacement runs the Section III-F pass itself.
		{"refactor-cleanup", "dedup/level:1:panic", "rf", "launch", func(o aigre.Options) (aigre.Result, error) { return n.Refactor(ctx, o) }},
		{"refactor-pass-2", "refactor/resynth:2:panic", "rf; rf", "launch", func(o aigre.Options) (aigre.Result, error) { return n.Run(ctx, "rf; rf", o) }},
	} {
		plan, err := gpu.ParseFaultPlan(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.run(aigre.Options{Parallel: true, Workers: 1, FaultPlans: []gpu.FaultPlan{plan}})
		if err != nil {
			t.Errorf("%s: err = %v, want the fault contained", c.name, err)
			continue
		}
		if len(res.Incidents) != 1 || res.Incidents[0].Stage != c.stage || res.Incidents[0].Action != "retried-sequential" {
			t.Errorf("%s: incidents = %+v, want one %s incident, retried-sequential", c.name, res.Incidents, c.stage)
		}
		if eq, err := res.AIG.EquivalentTo(n); err != nil || !eq {
			t.Errorf("%s: output not equivalent to the input (%v)", c.name, err)
		}
		if res.Script != c.script || res.Attempts != 1 || res.NodesAfter != res.AIG.Stats().Nodes {
			t.Errorf("%s: record script %q, attempts %d, nodes after %d: want %q, 1, %d",
				c.name, res.Script, res.Attempts, res.NodesAfter, c.script, res.AIG.Stats().Nodes)
		}
	}
}

// TestVerifyCatchesSampledMiss runs a corrupted parallel refactoring that the
// default sampling gate (flow.GateRounds rounds) lets through on this input:
// with Verify the full check refutes it, records an incident and the output
// is the sequential engine's, equivalent to the input.
func TestVerifyCatchesSampledMiss(t *testing.T) {
	n := aigre.FromInternal(bench.Multiplier(8))
	plan, err := gpu.ParseFaultPlan("replace/insert:1:corrupt")
	if err != nil {
		t.Fatal(err)
	}
	res, err := n.Run(context.Background(), "rf", aigre.Options{Parallel: true, Workers: 1, Verify: true,
		FaultPlans: []gpu.FaultPlan{plan}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Incidents) != 1 || res.Incidents[0].Stage != "equivalence" {
		t.Errorf("incidents = %+v, want one equivalence incident", res.Incidents)
	}
	if eq, err := res.AIG.EquivalentTo(n); err != nil || !eq {
		t.Errorf("verified output not equivalent to the input (%v)", err)
	}
}

// TestSequentialPassesRepeat checks that a repeated command repeats the
// sequential engine: the script "rf; rf" gives the network of two chained
// one-pass calls.
func TestSequentialPassesRepeat(t *testing.T) {
	ctx := context.Background()
	n := suiteCase(t, "mem_ctrl") // a second drf pass still finds replacements here
	one, err := n.Refactor(ctx, aigre.Options{Cache: aigre.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	chained, err := one.AIG.Refactor(ctx, aigre.Options{Cache: aigre.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	two, err := n.Run(ctx, "rf; rf", aigre.Options{Cache: aigre.NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := outputDigest(t, two.AIG), outputDigest(t, chained.AIG); got != want {
		t.Errorf("Run(rf; rf) differs from two chained passes: %d vs %d nodes", two.AIG.Stats().Nodes, chained.AIG.Stats().Nodes)
	}
	if two.AIG.Stats().Nodes >= one.AIG.Stats().Nodes {
		t.Errorf("second pass changed nothing (%d -> %d nodes): the case cannot tell one pass from two",
			one.AIG.Stats().Nodes, two.AIG.Stats().Nodes)
	}
	if len(two.Timings) != 2 || two.Timings[0].NodesAfter != one.AIG.Stats().Nodes || two.Timings[1].NodesAfter != two.AIG.Stats().Nodes {
		t.Errorf("run record timings = %+v, want one entry per command", two.Timings)
	}
}
