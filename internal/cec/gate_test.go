package cec

import (
	"math/rand"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/alloctest"
	"aigre/internal/bench"
)

// mutateGate returns a copy of a with one fanin of one seeded AND gate
// complemented.
func mutateGate(a *aig.AIG, seed int64) *aig.AIG {
	b := a.Clone()
	id := int32(a.NumPIs() + 1 + rand.New(rand.NewSource(seed)).Intn(a.NumAnds()))
	b.SetFanins(id, b.Fanin0(id).Not(), b.Fanin1(id))
	return b
}

// TestRefutedGateGolden pins what the sampling gate reports for seeded
// single-gate mutations to the values recorded at commit fde7099, before
// Simulate and the pattern rows changed layout: same verdict, same failing
// output, same counterexample. It covers the pattern draw order and the
// order mismatches are searched in. The Multiplier(8) rows were re-recorded
// when Compact began keeping a canonical network's ids, which renumbers that
// generator's output; their verdicts did not change.
func TestRefutedGateGolden(t *testing.T) {
	nets := []*aig.AIG{bench.Multiplier(8), bench.DeepNarrow(8, 500), bench.Voter(31)}
	golden := []struct {
		net     int
		seed    int64
		rounds  int
		refuted bool
		output  int
		cex     uint64 // bit i is PI i
	}{
		{0, 1, 0, true, 3, 0xf2d3},
		{0, 1, 16, true, 3, 0x328b},
		{0, 2, 0, true, 12, 0x9729},
		{0, 2, 16, true, 12, 0x892b},
		{0, 3, 0, true, 13, 0x51a7},
		{0, 3, 16, true, 13, 0x3ae6},
		{0, 4, 0, true, 9, 0xfa2},
		{0, 4, 16, true, 9, 0x9ead},
		{1, 1, 0, false, 0, 0x0},
		{1, 1, 16, true, 1, 0xf321b393},
		{1, 2, 0, false, 0, 0x0},
		{1, 2, 16, true, 1, 0x7f623cc1},
		{1, 3, 0, false, 0, 0x0},
		{1, 3, 16, true, 3, 0x4874b078},
		{1, 4, 0, false, 0, 0x0},
		{1, 4, 16, true, 6, 0x2c9c5f0c},
		{2, 1, 0, true, 0, 0x38a2b9fa},
		{2, 1, 16, true, 0, 0x2762b8fb},
		{2, 2, 0, true, 0, 0x6307bab2},
		{2, 2, 16, true, 0, 0x29eb099e},
		{2, 3, 0, true, 0, 0x605af85a},
		{2, 3, 16, true, 0, 0x6b60d92a},
		{2, 4, 0, true, 0, 0x45ebf206},
		{2, 4, 16, true, 0, 0x13038299},
	}
	for _, g := range golden {
		a := nets[g.net]
		res, refuted := SampleRefute(a, mutateGate(a, g.seed), g.rounds, g.seed*7919+1)
		var cex uint64
		for i, c := range res.Counterexample {
			if c {
				cex |= 1 << uint(i)
			}
		}
		if refuted != g.refuted || res.FailingOutput != g.output || cex != g.cex {
			t.Errorf("net %d seed %d rounds %d: refuted=%v output=%d cex=%#x, recorded %v %d %#x",
				g.net, g.seed, g.rounds, refuted, res.FailingOutput, cex, g.refuted, g.output, g.cex)
		}
	}
}

// TestGateAllocBudget: one gate allocates 12 B per node per network (8 B of
// simulation scratch and slack for size-class rounding) plus the pattern and
// result rows — not the 56 B x rounds per node of one slice per node.
func TestGateAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	a := bench.DeepNarrow(8, 500)
	b := a.Clone()
	const rounds = 4
	got := alloctest.Bytes(func() { SampleRefute(a, b, rounds, 1) })
	rows := 8 * rounds * (a.NumPIs() + 2*a.NumPOs())
	headers := 24 * (a.NumPIs() + 2*a.NumPOs())
	budget := uint64(12*(a.NumObjs()+b.NumObjs()) + rows + headers + 8192) // 8 KiB: the rand.Source
	if got > budget {
		t.Errorf("SampleRefute allocated %d B on 2 x %d nodes, budget %d B", got, a.NumObjs(), budget)
	}
}

// BenchmarkSampleRefute is the per-command gate (4 rounds, both networks) on
// the two shapes the repository benchmark gates most: multiplier x4 (a suite
// circuit) and the million-node deep/narrow network.
func BenchmarkSampleRefute(b *testing.B) {
	for _, bc := range []struct {
		name string
		net  *aig.AIG
	}{
		{"multiplier_x4", bench.DoubleN(bench.Multiplier(32), 2)},
		{"deepnarrow_64x4000", bench.DeepNarrow(64, 4000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			x, y := bc.net, bc.net.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			start := alloctest.Total()
			for i := 0; i < b.N; i++ {
				if _, refuted := SampleRefute(x, y, 0, int64(i)); refuted {
					b.Fatal("a network refuted its own copy")
				}
			}
			alloctest.ReportPerNode(b, start, x.NumObjs()+y.NumObjs())
		})
	}
}
