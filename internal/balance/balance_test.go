package balance

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/gpu"
)

func simEqual(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false
	}
	ins := make([][]uint64, a.NumPIs())
	for i := range ins {
		r := rand.New(rand.NewSource(int64(i)*2713 + 5))
		ins[i] = []uint64{r.Uint64(), r.Uint64(), r.Uint64()}
	}
	sa, sb := a.Simulate(ins), b.Simulate(ins)
	for i := range sa {
		for j := range sa[i] {
			if sa[i][j] != sb[i][j] {
				return false
			}
		}
	}
	return true
}

// chainAIG builds a deliberately unbalanced AND chain over n PIs
// (depth n-1), which balancing must reduce to depth ceil(log2 n).
func chainAIG(n int) *aig.AIG {
	a := aig.New(n)
	a.EnableStrash()
	acc := a.PI(0)
	for i := 1; i < n; i++ {
		acc = a.NewAnd(acc, a.PI(i))
	}
	a.AddPO(acc)
	return a
}

func TestSequentialBalancesChain(t *testing.T) {
	a := chainAIG(8)
	out, st := Sequential(a)
	if out.Levels() != 3 {
		t.Errorf("levels = %d, want 3", out.Levels())
	}
	if out.NumAnds() != 7 {
		t.Errorf("nodes = %d, want 7", out.NumAnds())
	}
	if st.LevelsBefore != 7 || st.LevelsAfter != 3 {
		t.Errorf("stats = %+v", st)
	}
	if !simEqual(a, out) {
		t.Errorf("function changed")
	}
}

func TestParallelBalancesChain(t *testing.T) {
	a := chainAIG(8)
	out, _ := Parallel(gpu.New(1), a)
	if out.Levels() != 3 {
		t.Errorf("levels = %d, want 3", out.Levels())
	}
	if !simEqual(a, out) {
		t.Errorf("function changed")
	}
}

func TestDelayAwareOrdering(t *testing.T) {
	// Paper Figure 5: inputs with smaller delays are combined first. A
	// supergate with input delays {2,0,0} must give delay 3 (combine the
	// two delay-0 inputs first), not 4 (chaining through the deep input).
	// The complemented edge stops supergate expansion at `deep`.
	a := aig.New(5)
	a.EnableStrash()
	deep := a.NewAnd(a.NewAnd(a.PI(0), a.PI(1)), a.PI(2)).Not() // delay 2, complemented
	top := a.NewAnd(a.NewAnd(deep, a.PI(3)), a.PI(4))           // original delay 4
	a.AddPO(top)
	if a.Levels() != 4 {
		t.Fatalf("setup levels = %d, want 4", a.Levels())
	}
	seq, _ := Sequential(a)
	par, _ := Parallel(gpu.New(1), a)
	if seq.Levels() != 3 {
		t.Errorf("sequential levels = %d, want 3", seq.Levels())
	}
	if par.Levels() != 3 {
		t.Errorf("parallel levels = %d, want 3", par.Levels())
	}
}

func TestProperty3ParallelMatchesSequentialLevels(t *testing.T) {
	// Property 3: the delays produced by parallel balancing equal those of
	// the sequential algorithm regardless of reconstruction order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 5+rng.Intn(6), 80+rng.Intn(300), 3+rng.Intn(4)).Rehash()
		s, _ := Sequential(a)
		p, _ := Parallel(gpu.New(1+rng.Intn(4)), a)
		if s.Levels() != p.Levels() {
			t.Logf("levels differ: seq %d vs par %d", s.Levels(), p.Levels())
			return false
		}
		return simEqual(a, p) && simEqual(a, s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBalanceNeverIncreasesDelay(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6, 200, 5).Rehash()
		s, _ := Sequential(a)
		p, _ := Parallel(gpu.New(2), a)
		return s.Levels() <= a.Levels() && p.Levels() <= a.Levels()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestBalanceIdempotent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := aig.Random(rng, 8, 300, 4).Rehash()
	once, _ := Sequential(a)
	twice, _ := Sequential(once)
	if once.Levels() != twice.Levels() {
		t.Errorf("levels changed on rebalance: %d -> %d", once.Levels(), twice.Levels())
	}
}

func TestNormalizeInputs(t *testing.T) {
	x := aig.MakeLit(5, false)
	y := aig.MakeLit(6, false)
	// duplicates collapse
	red, _, collapsed := normalizeInputs([]item{{0, x}, {1, y}, {0, x}})
	if collapsed || len(red) != 2 {
		t.Errorf("dedup failed: %v %v", red, collapsed)
	}
	// complementary pair -> const0
	_, single, collapsed := normalizeInputs([]item{{0, x}, {0, x.Not()}})
	if !collapsed || single.lit != aig.ConstFalse {
		t.Errorf("x & !x must collapse to const0")
	}
	// const1 neutral
	red, _, collapsed = normalizeInputs([]item{{0, x}, {0, aig.ConstTrue}, {2, y}})
	if collapsed || len(red) != 2 {
		t.Errorf("const1 not dropped: %v", red)
	}
	// const0 dominates
	_, single, collapsed = normalizeInputs([]item{{0, x}, {0, aig.ConstFalse}})
	if !collapsed || single.lit != aig.ConstFalse {
		t.Errorf("const0 must dominate")
	}
	// single survivor
	_, single, collapsed = normalizeInputs([]item{{3, x}, {3, x}})
	if !collapsed || single.lit != x || single.delay != 3 {
		t.Errorf("single survivor = %+v", single)
	}
}

func TestHeapOrdering(t *testing.T) {
	h := &itemHeap{s: []item{{5, 10}, {1, 20}, {3, 30}, {1, 8}}}
	h.heapify()
	prev := h.pop()
	for h.len() > 0 {
		cur := h.pop()
		if itemLess(cur, prev) {
			t.Fatalf("heap order violated: %+v after %+v", cur, prev)
		}
		prev = cur
	}
}

func TestParallelHandlesMultiPO(t *testing.T) {
	a := aig.New(3)
	a.EnableStrash()
	n := a.NewAnd(a.PI(0), a.PI(1))
	a.AddPO(n)
	a.AddPO(n.Not())
	a.AddPO(a.PI(2))
	a.AddPO(aig.ConstTrue)
	out, _ := Parallel(gpu.New(1), a)
	if !simEqual(a, out) {
		t.Errorf("multi-PO function changed")
	}
}

func TestParallelDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := aig.Random(rng, 8, 400, 5).Rehash()
	r1, _ := Parallel(gpu.New(1), a)
	r2, _ := Parallel(gpu.New(4), a)
	if r1.NumAnds() != r2.NumAnds() || r1.Levels() != r2.Levels() {
		t.Errorf("worker count changed result: %v vs %v", r1.Stats(), r2.Stats())
	}
}
