package rewrite

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigre/internal/aig"
	"aigre/internal/core"
	"aigre/internal/gpu"
	"aigre/internal/truth"
)

func simEqual(a, b *aig.AIG) bool {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return false
	}
	ins := make([][]uint64, a.NumPIs())
	for i := range ins {
		r := rand.New(rand.NewSource(int64(i)*5417 + 1))
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

func TestLibraryImplementationsCorrect(t *testing.T) {
	// Every synthesized library entry must implement its canonical function.
	lib := NewLibrary()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 60; trial++ {
		tt := uint16(rng.Intn(1 << 16))
		canon, _ := truth.Npn4Canon(tt)
		prog, cost := lib.Best(canon)
		if cost != prog.NumAnds() && cost < prog.NumAnds() {
			t.Fatalf("cost %d below op count %d", cost, prog.NumAnds())
		}
		a := aig.New(4)
		a.EnableStrash()
		leaves := []aig.Lit{a.PI(0), a.PI(1), a.PI(2), a.PI(3)}
		results := make([]aig.Lit, len(prog.Ops))
		for i, op := range prog.Ops {
			results[i] = a.NewAnd(core.Resolve(op.A, leaves, results), core.Resolve(op.B, leaves, results))
		}
		a.AddPO(core.Resolve(prog.Root, leaves, results))
		for m := 0; m < 16; m++ {
			in := []bool{m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0}
			if a.EvalOnce(in)[0] != (canon>>uint(m)&1 != 0) {
				t.Fatalf("class %04x: wrong at minterm %d", canon, m)
			}
		}
	}
}

func TestMapLeavesRoundTrip(t *testing.T) {
	// Building the canonical program with mapped leaves must implement the
	// original function.
	rng := rand.New(rand.NewSource(3))
	lib := NewLibrary()
	for trial := 0; trial < 60; trial++ {
		orig := uint16(rng.Intn(1 << 16))
		canon, tr := truth.Npn4Canon(orig)
		prog, _ := lib.Best(canon)
		a := aig.New(4)
		a.EnableStrash()
		leaves := []int32{1, 2, 3, 4} // PI node ids
		mapped, outNeg := mapLeaves(leaves, tr)
		results := make([]aig.Lit, len(prog.Ops))
		for i, op := range prog.Ops {
			results[i] = a.NewAnd(core.Resolve(op.A, mapped[:], results), core.Resolve(op.B, mapped[:], results))
		}
		root := core.Resolve(prog.Root, mapped[:], results).NotCond(outNeg)
		a.AddPO(root)
		for m := 0; m < 16; m++ {
			in := []bool{m&1 != 0, m&2 != 0, m&4 != 0, m&8 != 0}
			if a.EvalOnce(in)[0] != (orig>>uint(m)&1 != 0) {
				t.Fatalf("trial %d (tt %04x): wrong at minterm %d", trial, orig, m)
			}
		}
	}
}

func TestPad16(t *testing.T) {
	// A 2-variable AND (tt 0x8) padded to 4 vars is 0x8888.
	if got := pad16(0x8, 2); got != 0x8888 {
		t.Errorf("pad16 = %04x, want 8888", got)
	}
	// A 1-variable identity (tt 0b10) padded is 0xAAAA.
	if got := pad16(0x2, 1); got != 0xAAAA {
		t.Errorf("pad16 = %04x, want AAAA", got)
	}
}

func TestEnumLocalCuts(t *testing.T) {
	a := aig.New(4)
	a.EnableStrash()
	n1 := a.NewAnd(a.PI(0), a.PI(1))
	n2 := a.NewAnd(a.PI(2), a.PI(3))
	n3 := a.NewAnd(n1, n2)
	a.AddPO(n3)
	s := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(s)
	cuts := enumLocalCuts(a, n3.Var(), 8, s)
	// Expect {n1,n2}, {n1,x2,x3}, {x0,x1,n2}, {x0,x1,x2,x3}.
	if len(cuts) != 4 {
		t.Errorf("cuts = %v, want 4", cuts)
	}
	for _, c := range cuts {
		if len(c.leaves()) < 2 {
			t.Errorf("bad cut size: %v", c)
		}
	}
}

// muxHeavyAIG builds an AIG full of naively constructed XOR/MUX structures
// with redundant expansion that rewriting should compress.
func muxHeavyAIG(rng *rand.Rand, nPIs int, nOps int) *aig.AIG {
	a := aig.New(nPIs)
	a.EnableStrash()
	lits := make([]aig.Lit, 0, nPIs+nOps)
	for i := 0; i < nPIs; i++ {
		lits = append(lits, a.PI(i))
	}
	for i := 0; i < nOps; i++ {
		x := lits[rng.Intn(len(lits))]
		y := lits[rng.Intn(len(lits))]
		z := lits[rng.Intn(len(lits))]
		var l aig.Lit
		switch rng.Intn(3) {
		case 0: // unfactored SOP: (x&y)|(x&z), optimally x&(y|z)
			l = a.Or(a.NewAnd(x, y), a.NewAnd(x, z))
		case 1: // unfactored POS variant sharing !x
			l = a.Or(a.NewAnd(x.Not(), y), a.NewAnd(x.Not(), z.Not()))
		default:
			l = a.NewAnd(x, y.Not())
		}
		lits = append(lits, l)
	}
	for i := 0; i < 4; i++ {
		a.AddPO(lits[len(lits)-1-rng.Intn(4)])
	}
	return a
}

func TestSequentialPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6, 120, 4).Rehash()
		out, _ := Sequential(a, Options{ZeroGain: rng.Intn(2) == 0})
		if err := out.Check(); err != nil {
			t.Log(err)
			return false
		}
		return simEqual(a, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSequentialNeverIncreasesArea(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 7, 150, 4).Rehash()
		out, _ := Sequential(a, Options{})
		return out.NumAnds() <= a.NumAnds()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestParallelPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := aig.Random(rng, 6, 120, 4).Rehash()
		out, _ := Parallel(gpu.New(1+rng.Intn(4)), a, Options{})
		if err := out.Check(); err != nil {
			t.Log(err)
			return false
		}
		return simEqual(a, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestRewriteReducesVerboseStructures(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := muxHeavyAIG(rng, 8, 40)
	seqOut, seqSt := Sequential(a, Options{})
	if seqOut.NumAnds() > a.NumAnds() {
		t.Errorf("sequential rewrite grew the AIG: %d -> %d", a.NumAnds(), seqOut.NumAnds())
	}
	if seqSt.NodesRewritten == 0 {
		t.Errorf("no nodes rewritten on a redundant AIG")
	}
	if !simEqual(a, seqOut) {
		t.Errorf("sequential changed function")
	}
	parOut, _ := Parallel(gpu.New(2), a, Options{})
	if !simEqual(a, parOut) {
		t.Errorf("parallel changed function")
	}
}

func TestZeroGainEnablesMoreRewrites(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := aig.Random(rng, 8, 300, 5).Rehash()
	_, noZ := Sequential(a, Options{})
	_, withZ := Sequential(a, Options{ZeroGain: true})
	if withZ.NodesRewritten < noZ.NodesRewritten {
		t.Errorf("zero-gain rewrote fewer nodes: %d < %d", withZ.NodesRewritten, noZ.NodesRewritten)
	}
}
