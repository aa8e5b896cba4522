package rewrite

import (
	"runtime/debug"
	"testing"

	"aigre/internal/alloctest"
	"aigre/internal/bench"
	"aigre/internal/gpu"
)

// TestParallelAllocBudget pins the bytes one parallel rw pass and one rwz
// pass allocate per AND node of multiplier (scale 1) on two workers, with
// warm library, NPN table and scratch pool. The budgets sit 10 % above the
// measured values, so a candidate array that carries pointers or a copy of
// each winning cut coming back fails here (scripts/check.sh keeps per-thread
// pool round trips out of the kernel). The collector is off and
// alloctest.Bytes takes the minimum of its three passes: a pass whose scratch
// Get lands on another P than the last Put misses the pool and is charged a
// fresh scratch.
func TestParallelAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a, _ := bench.ByName("multiplier", 1)
	d := gpu.New(2)
	for _, tc := range []struct {
		name   string
		opts   Options
		budget float64 // bytes per AND node
	}{
		{"rw", Options{}, 225},
		{"rwz", Options{ZeroGain: true}, 225},
	} {
		opts := tc.opts
		Parallel(d, a, opts)
		perNode := float64(alloctest.Bytes(func() { Parallel(d, a, opts) })) / float64(a.NumAnds())
		t.Logf("%s: %.0f B/node over %d ANDs (budget %.0f)", tc.name, perNode, a.NumAnds(), tc.budget)
		if perNode > tc.budget {
			t.Errorf("%s: %.0f B/node, budget %.0f", tc.name, perNode, tc.budget)
		}
	}
}
