package partition

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/cec"
	"aigre/internal/flow"
	"aigre/internal/gpu"
)

// testPool returns a pool of n workers that closes with the test.
func testPool(t *testing.T, n int) *gpu.Pool {
	t.Helper()
	p := gpu.NewPool(n)
	t.Cleanup(p.Close)
	return p
}

// runScript is Run with every partition running script through flow.Run,
// on a lease of opts.Pool in parallel mode, as a sched job's attempt runs a
// partitioned job's script.
func runScript(ctx context.Context, a *aig.AIG, script string, opts Options) (Result, error) {
	return Run(ctx, a, opts, func(ctx context.Context, part *aig.AIG) (flow.Result, error) {
		var dev *gpu.Device
		if opts.Flow.Parallel {
			dev = opts.Pool.Lease(0)
		}
		return flow.Run(ctx, dev, part, script, opts.Flow)
	})
}

// fullCEC asserts functional equivalence with the complete checker (random
// refutation, exhaustive simulation, SAT sweeping) — no sampling shortcuts.
func fullCEC(t *testing.T, a, b *aig.AIG) {
	t.Helper()
	res, err := cec.Check(a, b, cec.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Equivalent {
		t.Fatalf("networks differ on PO %d (%s)", res.FailingOutput, res.Method)
	}
}

func TestPartitionModesEquivalence(t *testing.T) {
	// Cones mode needs many POs to cluster; levels mode needs depth.
	circuits := map[Mode][]string{
		Cones:  {"multiplier", "mem_ctrl", "ac97_ctrl"},
		Levels: {"voter", "sin", "mem_ctrl"},
	}
	for mode, names := range circuits {
		for _, name := range names {
			mode, name := mode, name
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				a, ok := bench.ByName(name, 1)
				if !ok {
					t.Fatalf("unknown circuit %q", name)
				}
				res, err := runScript(context.Background(), a, "b; rw", Options{
					Split: Split{Mode: mode, TargetSize: a.NumAnds()/6 + 1},
					Pool:  testPool(t, 4),
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Parts) < 2 {
					t.Fatalf("expected multiple partitions, got %d", len(res.Parts))
				}
				if err := aig.Check(res.AIG); err != nil {
					t.Fatal(err)
				}
				fullCEC(t, a, res.AIG)
				if res.SharedNodes != 0 {
					t.Errorf("%v mode duplicated %d nodes", mode, res.SharedNodes)
				}
				// Every node is optimized once, so partitioned optimization
				// never grows the network.
				if res.NodesOut > res.NodesIn {
					t.Errorf("optimization grew the network: %d -> %d", res.NodesIn, res.NodesOut)
				}
			})
		}
	}
}

// TestStitchCheckpointIdentity pins the rollback contract's foundation: a
// stitch of nothing but pre-optimization cones must reproduce the base
// network's function exactly, in both modes.
func TestStitchCheckpointIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := aig.Random(rng, 12, 600, 9)
	pool := testPool(t, 2)
	for _, mode := range []Mode{Cones, Levels} {
		var parts []*part
		if mode == Cones {
			parts = buildCones(a, 120)
		} else {
			parts = buildWindows(a, 120)
		}
		merged, _, err := stitchParallel(pool.Lease(0), a, parts, extractAll(pool.Lease(0), a, parts))
		if err != nil {
			t.Fatal(err)
		}
		if err := aig.Check(merged); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		fullCEC(t, a, merged)
	}
}

// TestResolveRollsBackCorruptPartition injects a functionally wrong
// "optimized" cone past the local gate — its first original primary output,
// the PO after the boundary exports, complemented — and checks that the seam
// gate catches it, rolls exactly that partition back, and still produces an
// equivalent network.
func TestResolveRollsBackCorruptPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := aig.Random(rng, 10, 500, 8)
	parts := buildCones(a, 100)
	if len(parts) < 2 {
		t.Fatalf("expected multiple partitions, got %d", len(parts))
	}
	pool := testPool(t, 2)
	ctx := context.Background()
	pres := extractAll(pool.Lease(0), a, parts)
	chosen := make([]*aig.AIG, len(parts))
	copy(chosen, pres)
	bad := chosen[1].Clone()
	po := len(parts[1].outputs)
	bad.SetPO(po, bad.PO(po).Not())
	chosen[1] = bad

	res := Result{Report: Report{Parts: make([]Stat, len(parts))}}
	merged, err := resolve(ctx, pool.Lease(0), a, parts, pres, chosen, Options{Pool: pool}.normalized(), &res)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rollbacks == 0 || !res.Parts[1].RolledBack {
		t.Errorf("corrupt partition not rolled back: %+v", res.Parts[1])
	}
	if res.StitchRounds < 2 {
		t.Errorf("expected at least 2 stitch rounds, got %d", res.StitchRounds)
	}
	fullCEC(t, a, merged)
}

// TestPartitionStressRace is the check.sh -race stress row: 8 partitions
// racing over a 2-worker pool in parallel mode, sharing one cache, must
// produce an equivalent network.
func TestPartitionStressRace(t *testing.T) {
	a, ok := bench.ByName("ac97_ctrl", 1)
	if !ok {
		t.Fatal("ac97_ctrl missing from suite")
	}
	res, err := runScript(context.Background(), a, "b; rw; rwz", Options{
		Split: Split{Mode: Cones, TargetSize: a.NumAnds()/8 + 1},
		Pool:  testPool(t, 2),
		Flow:  flow.Config{Parallel: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Parts) < 2 {
		t.Fatalf("expected several partitions, got %d", len(res.Parts))
	}
	fullCEC(t, a, res.AIG)
}

func TestPartitionCancellation(t *testing.T) {
	a, ok := bench.ByName("sin", 1)
	if !ok {
		t.Fatal("sin missing from suite")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := runScript(ctx, a, "b; rw", Options{Split: Split{Mode: Cones, TargetSize: 500}, Pool: testPool(t, 2)})
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if res.AIG != a {
		t.Error("cancelled run should hand back the original network")
	}
}

// TestPartitionEditedInput pins the canonicalization path: a network with
// deleted nodes and non-topological ids from in-place editing partitions
// and stitches correctly.
func TestPartitionEditedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := aig.Random(rng, 8, 300, 6)
	a.EnableStrash()
	a.EnableFanouts()
	for k := 0; k < 5; k++ {
		var live []int32
		a.ForEachAnd(func(id int32) { live = append(live, id) })
		if len(live) == 0 {
			break
		}
		id := live[rng.Intn(len(live))]
		a.ReplaceNode(id, a.Fanin0(id))
	}
	res, err := runScript(context.Background(), a, "b", Options{Split: Split{Mode: Levels, TargetSize: 60}, Pool: testPool(t, 2)})
	if err != nil {
		t.Fatal(err)
	}
	fullCEC(t, a.Rehash(), res.AIG)
}

// TestPartitionInvalidInput: a partitioned run of a cyclic network returns
// flow.ErrInvalidInput in either mode and on either engine, not a panic.
func TestPartitionInvalidInput(t *testing.T) {
	a := aig.Random(rand.New(rand.NewSource(5)), 8, 300, 6).Rehash()
	last := int32(a.NumObjs() - 1)
	f := a.Fanin0(last)
	if !a.IsAnd(f.Var()) {
		f = a.Fanin1(last)
	}
	a.SetFanins(f.Var(), aig.MakeLit(last, false), a.Fanin1(f.Var()))
	if aig.Check(a) == nil {
		t.Fatal("no cycle made")
	}
	for _, mode := range []Mode{Cones, Levels} {
		for _, parallel := range []bool{false, true} {
			opts := Options{Split: Split{Mode: mode, TargetSize: 60}, Pool: testPool(t, 2), Flow: flow.Config{Parallel: parallel}}
			if _, err := runScript(context.Background(), a, "b; rw", opts); !errors.Is(err, flow.ErrInvalidInput) {
				t.Errorf("%v, parallel %v: error %v, want flow.ErrInvalidInput", mode, parallel, err)
			}
		}
	}
}

// TestExtractedPartitionsAreClean: extraction replays members through
// AddAndUnchecked, which sorts fanins, so every partition of a Clean base is
// Clean and flow.Run only checks it instead of rebuilding it. Over the suite
// split both ways at three sizes, and rehashed random bases.
func TestExtractedPartitionsAreClean(t *testing.T) {
	bases := []*aig.AIG{}
	for _, c := range bench.Suite(1) {
		bases = append(bases, c.Build().Rehash())
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		bases = append(bases, aig.Random(rng, 8+int(seed)*4, 1500*int(seed), 6*int(seed)).Rehash())
	}
	d := testPool(t, 2).Lease(0)
	settings := 0
	for _, base := range bases {
		if !base.Clean() {
			t.Fatalf("%s: base is not Clean", base.Name)
		}
		for _, target := range []int{200, 1000, 5000} {
			for mode, parts := range map[Mode][]*part{Cones: buildCones(base, target), Levels: buildWindows(base, target)} {
				settings++
				for i, c := range extractAll(d, base, parts) {
					if !c.Clean() {
						t.Errorf("%s, %v, target %d: partition %d of %d is not Clean", base.Name, mode, target, i, len(parts))
					}
				}
			}
		}
	}
	if settings != (14+4)*3*2 {
		t.Errorf("%d settings checked, want %d", settings, (14+4)*3*2)
	}
}
