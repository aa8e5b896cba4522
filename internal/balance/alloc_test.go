package balance

import (
	"testing"

	"aigre/internal/alloctest"
	"aigre/internal/bench"
	"aigre/internal/gpu"
)

// TestParallelAllocBudget pins the bytes one parallel balancing pass
// allocates per AND node of multiplier (scale 1) on two workers. The budget
// sits 10 % above the measured value, so a slice allocated per subtree, or
// heap headers stored per subtree, coming back fails here. The collector
// stays on: balancing keeps no pool, so its bytes do not depend on when
// collections run, while per-subtree slice pools would lose their contents
// to the collections a pass triggers and fail the budget.
func TestParallelAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	const budget = 249 // bytes per AND node
	a, _ := bench.ByName("multiplier", 1)
	d := gpu.New(2)
	Parallel(d, a)
	perNode := float64(alloctest.Bytes(func() { Parallel(d, a) })) / float64(a.NumAnds())
	t.Logf("%.0f B/node over %d ANDs (budget %d)", perNode, a.NumAnds(), budget)
	if perNode > budget {
		t.Errorf("%.0f B/node, budget %d", perNode, budget)
	}
}
