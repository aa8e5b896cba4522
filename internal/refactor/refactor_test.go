package refactor

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/alloctest"
	"aigre/internal/bench"
	"aigre/internal/cut"
	"aigre/internal/gpu"
	"aigre/internal/rcache"
	"aigre/internal/truth"
)

func simEqual(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false
	}
	ins := make([][]uint64, a.NumPIs())
	for i := range ins {
		r := rand.New(rand.NewSource(int64(i)*6151 + 13))
		ins[i] = []uint64{r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()}
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

// redundantAIG builds an AIG with deliberately unfactored logic:
// each PO is a flat sum of products sharing divisors, plus duplicated
// structure that refactoring should compress.
func redundantAIG(rng *rand.Rand, nPIs, nPOs int) *aig.AIG {
	a := aig.New(nPIs)
	a.EnableStrash()
	for o := 0; o < nPOs; o++ {
		sum := aig.ConstFalse
		for c := 0; c < 4+rng.Intn(4); c++ {
			cube := aig.ConstTrue
			for l := 0; l < 2+rng.Intn(3); l++ {
				pi := a.PI(rng.Intn(nPIs)).NotCond(rng.Intn(2) == 0)
				cube = a.NewAnd(cube, pi)
			}
			sum = a.Or(sum, cube)
		}
		a.AddPO(sum)
	}
	return a
}

func TestParallelPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6+rng.Intn(4), 120+rng.Intn(200), 4)
		a = a.Rehash()
		d := gpu.New(1 + rng.Intn(4))
		defer func(k int) { maxCut = k }(maxCut)
		maxCut = 4 + rng.Intn(9)
		out, _ := Parallel(d, a, Options{})
		if err := out.Check(); err != nil {
			t.Log(err)
			return false
		}
		return simEqual(a, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParallelNeverIncreasesArea(t *testing.T) {
	// Section III-D: the lower-bound gain guarantees no area increase.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 8, 300, 5).Rehash()
		out, st := Parallel(gpu.New(2), a, Options{})
		return out.NumAnds() <= a.NumAnds() && st.NodesAfter == out.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestParallelReducesRedundantLogic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := redundantAIG(rng, 8, 6)
	out, st := Parallel(gpu.New(1), a, Options{})
	if out.NumAnds() >= a.NumAnds() {
		t.Errorf("no reduction: %d -> %d (replaced %d cones)", a.NumAnds(), out.NumAnds(), st.ConesReplaced)
	}
	if !simEqual(a, out) {
		t.Errorf("function changed")
	}
}

func TestParallelSequentialReplacementAblation(t *testing.T) {
	// The Table I ablation must produce identical results, only with
	// different time attribution.
	rng := rand.New(rand.NewSource(5))
	a := aig.Random(rng, 8, 250, 4).Rehash()
	dp := gpu.New(2)
	outP, _ := Parallel(dp, a, Options{})
	ds := gpu.New(2)
	outS, _ := ParallelSeqReplace(ds, a, Options{})
	if err := outS.Check(); err != nil {
		t.Fatal(err)
	}
	if outS.NumAnds() > a.NumAnds() {
		t.Errorf("ablation grew the AIG: %d -> %d", a.NumAnds(), outS.NumAnds())
	}
	if !simEqual(a, outS) || !simEqual(a, outP) {
		t.Errorf("ablation changed function")
	}
	// The ablation performs its replacement on the host, so it must report
	// sequential-part time; the proposed algorithm must not.
	if gpu.TotalProfile(ds.Profile()).Seq == 0 {
		t.Errorf("ablation reported no sequential part")
	}
	if seq := gpu.TotalProfile(dp.Profile()).Seq; seq != 0 {
		t.Errorf("proposed replacement reported sequential part %v", seq)
	}
}

// TestRefactorWorkerIndependence runs parallel rf at 1, 2 and 4 workers and
// wants the same network every time: the replacement writes each cone into
// its own slots and leaves every share to the Section III-F pass, whose
// survivors do not depend on the schedule. ac97_ctrl at scale 4 is where a
// first-insert-wins sharing step once gave three networks in six runs at two
// workers.
func TestRefactorWorkerIndependence(t *testing.T) {
	cases := bench.Suite(1)
	for _, c := range bench.Suite(4) {
		if c.Name == "ac97_ctrl" {
			c.Name += "@4"
			cases = append(cases, c)
		}
	}
	cache := rcache.New()
	for _, c := range cases {
		in := c.Build().Rehash()
		var want *aig.AIG
		for _, w := range []int{1, 2, 4} {
			for run := 0; run < 4; run++ {
				got, _ := Parallel(gpu.New(w), in, Options{Cache: cache})
				if want == nil {
					if want = got; !simEqual(in, want) {
						t.Fatalf("%s: function changed", c.Name)
					}
				} else if !sameNetwork(got, want) {
					t.Errorf("%s: W=%d run %d differs from W=1 (%d vs %d ANDs)",
						c.Name, w, run, got.NumAnds(), want.NumAnds())
				}
			}
		}
	}
}

// sameNetwork reports whether a and b are the same network node for node.
func sameNetwork(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumObjs() != b.NumObjs() || !slices.Equal(a.POs(), b.POs()) {
		return false
	}
	for id := int32(a.NumPIs() + 1); int(id) < a.NumObjs(); id++ {
		if a.Fanin0(id) != b.Fanin0(id) || a.Fanin1(id) != b.Fanin1(id) {
			return false
		}
	}
	return true
}

func TestSequentialPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6+rng.Intn(4), 100+rng.Intn(200), 4).Rehash()
		out, _ := Sequential(a, Options{ZeroGain: rng.Intn(2) == 0})
		if err := out.Check(); err != nil {
			t.Log(err)
			return false
		}
		return simEqual(a, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSequentialNeverIncreasesArea(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 8, 250, 5).Rehash()
		out, _ := Sequential(a, Options{})
		return out.NumAnds() <= a.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSequentialReducesRedundantLogic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := redundantAIG(rng, 8, 6)
	out, st := Sequential(a, Options{})
	if out.NumAnds() >= a.NumAnds() {
		t.Errorf("no reduction: %d -> %d (%d cones replaced)", a.NumAnds(), out.NumAnds(), st.ConesReplaced)
	}
	if !simEqual(a, out) {
		t.Errorf("function changed")
	}
}

func TestTwoPassesImproveOrMatch(t *testing.T) {
	// The paper runs GPU rf twice because parallel resynthesis cannot see
	// earlier replacements within a pass; a second pass must not hurt.
	rng := rand.New(rand.NewSource(17))
	a := redundantAIG(rng, 10, 8)
	d := gpu.New(1)
	once, _ := Parallel(d, a, Options{})
	twice, _ := Parallel(d, once, Options{})
	if twice.NumAnds() > once.NumAnds() {
		t.Errorf("second pass increased area: %d -> %d", once.NumAnds(), twice.NumAnds())
	}
	if !simEqual(a, twice) {
		t.Errorf("function changed after two passes")
	}
}

// TestOptionsNormalization: the zero Options refactor through rcache.Default
// (a nil cache is the default inside rcache) with the paper's cut limit.
func TestOptionsNormalization(t *testing.T) {
	before := rcache.Default.Snapshot()
	Sequential(redundantAIG(rand.New(rand.NewSource(5)), 10, 8), Options{})
	if d := rcache.Default.Snapshot().Sub(before); d.Lookups() == 0 {
		t.Errorf("a pass with no cache set probed rcache.Default %d times", d.Lookups())
	}
	if maxCut != 12 || maxCut > truth.MaxVars {
		t.Errorf("maxCut = %d, want the paper's 12 (at most truth.MaxVars = %d)", maxCut, truth.MaxVars)
	}
}

// xorChain builds a cone over three PIs too large for ConeKey's 16-bit
// operand codes: a parity chain of ~33k AND nodes.
func xorChain() (*aig.AIG, aig.Lit, []int32) {
	a := aig.New(3)
	a.EnableStrash()
	x := a.PI(0)
	for i := 0; a.NumAnds() <= 1<<15; i++ {
		x = a.Xor(x, a.PI(1+i%2))
	}
	a.AddPO(x)
	return a, x, []int32{a.PI(0).Var(), a.PI(1).Var(), a.PI(2).Var()}
}

// TestUnencodableConeBypassesCache: a cone ConeKey cannot encode must neither
// probe nor fill the cache — a nil key would otherwise alias every such cone
// — and must still be resynthesized correctly, every time.
func TestUnencodableConeBypassesCache(t *testing.T) {
	a, root, leaves := xorChain()
	s := new(scratch)
	if key := s.cs.ConeKey(a, root, leaves, nil); key != nil {
		t.Fatalf("%d-node cone encoded to a %d-byte key", a.NumAnds(), len(key))
	}
	wantProg, wantOps := resynthesize(a, root, leaves, rcache.Disabled(), s)
	c := rcache.New()
	for i := 0; i < 2; i++ {
		prog, ops := resynthesize(a, root, leaves, c, s)
		if !reflect.DeepEqual(prog, wantProg) || ops != wantOps {
			t.Fatalf("call %d: program %+v (%d ops), want %+v (%d ops)", i, prog, ops, wantProg, wantOps)
		}
	}
	if st := c.Snapshot(); st != (rcache.Stats{}) {
		t.Errorf("unencodable cone touched the cache: %+v", st)
	}
}

// TestStructuralAndFunctionalKeysDisjoint: the same cone stored under its
// structural key and under its truth table occupies two entries, and each
// probe finds its own.
func TestStructuralAndFunctionalKeysDisjoint(t *testing.T) {
	a := redundantAIG(rand.New(rand.NewSource(5)), 6, 1)
	root := a.PO(0)
	leaves := []int32{}
	for i := 0; i < a.NumPIs(); i++ {
		leaves = append(leaves, a.PI(i).Var())
	}
	var cs cut.Scratch
	key := cs.ConeKey(a, root, leaves, nil)
	tt := cs.KeyedTruth(a, root, leaves).Clone()
	c := rcache.New()
	c.Store(tt, len(leaves), rcache.Entry{Ops: 1})
	if _, ok := c.LookupKey(key); ok {
		t.Fatal("structural probe hit the functional entry")
	}
	c.StoreKey(key, rcache.Entry{Ops: 2})
	if e, ok := c.Lookup(tt, len(leaves)); !ok || e.Ops != 1 {
		t.Errorf("functional probe = (%+v, %v), want its own entry", e, ok)
	}
	if e, ok := c.LookupKey(key); !ok || e.Ops != 2 {
		t.Errorf("structural probe = (%+v, %v), want its own entry", e, ok)
	}
	if n := c.Entries(); n != 2 {
		t.Errorf("%d entries, want 2", n)
	}
}

var sinkRefactor *aig.AIG

// BenchmarkRefactorSequential is one sequential refactoring pass (drf) over
// multiplier at scale 4, the in-place engine of the sequential resyn2:
// Reconv cuts across the growing network, the EditInPlace copy in and out,
// and, with a fresh resynthesis cache per pass, the ISOP and factoring of
// every cone.
func BenchmarkRefactorSequential(b *testing.B) {
	a, _ := bench.ByName("multiplier", 4)
	b.ReportAllocs()
	b.ResetTimer()
	start := alloctest.Total()
	for i := 0; i < b.N; i++ {
		sinkRefactor, _ = Sequential(a, Options{Cache: rcache.New()})
	}
	alloctest.ReportPerNode(b, start, a.NumAnds())
}
