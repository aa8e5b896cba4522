package partition

import (
	"context"
	"fmt"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/bench"
	"aigre/internal/flow"
	"aigre/internal/rcache"
	"aigre/internal/sched"
)

// isomorphic checks that a and b are the same DAG up to node renumbering: PIs
// correspond by index, POs by position, and the mapping forced by walking the
// PO cones is a bijection on AND nodes that preserves fanin complement bits.
// Fanin order may differ between the networks (normalization sorts by literal
// value, which depends on the numbering), so both pairings are tried, with
// backtracking for the rare ambiguous case where the complement bits match
// both ways.
func isomorphic(a, b *aig.AIG) error {
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() || a.NumAnds() != b.NumAnds() {
		return fmt.Errorf("shape differs: %d/%d/%d PIs/POs/ANDs vs %d/%d/%d",
			a.NumPIs(), a.NumPOs(), a.NumAnds(), b.NumPIs(), b.NumPOs(), b.NumAnds())
	}
	mapAB := make([]int32, a.NumObjs())
	mapBA := make([]int32, b.NumObjs())
	for i := range mapAB {
		mapAB[i] = -1
	}
	for i := range mapBA {
		mapBA[i] = -1
	}
	mapAB[0], mapBA[0] = 0, 0
	for i := 0; i < a.NumPIs(); i++ {
		mapAB[i+1], mapBA[i+1] = int32(i+1), int32(i+1)
	}
	var trail []int32
	var match func(va, vb int32) bool
	match = func(va, vb int32) bool {
		if mapAB[va] != -1 || mapBA[vb] != -1 {
			return mapAB[va] == vb
		}
		if !a.IsAnd(va) || !b.IsAnd(vb) {
			return false // unmapped non-AND: PI index mismatch
		}
		mapAB[va], mapBA[vb] = vb, va
		trail = append(trail, va)
		mark := len(trail)
		f0a, f1a := a.Fanin0(va), a.Fanin1(va)
		try := func(x0, x1 aig.Lit) bool {
			if f0a.IsCompl() != x0.IsCompl() || f1a.IsCompl() != x1.IsCompl() {
				return false
			}
			if match(f0a.Var(), x0.Var()) && match(f1a.Var(), x1.Var()) {
				return true
			}
			for len(trail) > mark {
				ua := trail[len(trail)-1]
				trail = trail[:len(trail)-1]
				mapBA[mapAB[ua]] = -1
				mapAB[ua] = -1
			}
			return false
		}
		if try(b.Fanin0(vb), b.Fanin1(vb)) || try(b.Fanin1(vb), b.Fanin0(vb)) {
			return true
		}
		trail = trail[:len(trail)-1]
		mapAB[va], mapBA[vb] = -1, -1
		return false
	}
	for i := 0; i < a.NumPOs(); i++ {
		la, lb := a.PO(i), b.PO(i)
		if la.IsCompl() != lb.IsCompl() {
			return fmt.Errorf("PO %d polarity differs", i)
		}
		if !match(la.Var(), lb.Var()) {
			return fmt.Errorf("PO %d cones do not correspond", i)
		}
	}
	mapped := 0
	for id := int32(0); int(id) < a.NumObjs(); id++ {
		if a.IsAnd(id) && mapAB[id] != -1 {
			mapped++
		}
	}
	if mapped != a.NumAnds() {
		return fmt.Errorf("only %d of %d AND nodes mapped", mapped, a.NumAnds())
	}
	return nil
}

// sameAIG checks bit-identical structure (the determinism assertion: the
// parallel stitcher's output must not depend on the worker count).
func sameAIG(a, b *aig.AIG) error {
	if a.NumObjs() != b.NumObjs() || a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		return fmt.Errorf("shape differs")
	}
	for id := int32(int32(a.NumPIs()) + 1); int(id) < a.NumObjs(); id++ {
		if a.Fanin0(id) != b.Fanin0(id) || a.Fanin1(id) != b.Fanin1(id) {
			return fmt.Errorf("node %d fanins differ: (%v,%v) vs (%v,%v)",
				id, a.Fanin0(id), a.Fanin1(id), b.Fanin0(id), b.Fanin1(id))
		}
	}
	for i := 0; i < a.NumPOs(); i++ {
		if a.PO(i) != b.PO(i) {
			return fmt.Errorf("PO %d differs", i)
		}
	}
	return nil
}

// canonicalBase returns the named suite circuit in canonical id order.
func canonicalBase(t *testing.T, name string) *aig.AIG {
	t.Helper()
	a, ok := bench.ByName(name, 1)
	if !ok {
		t.Fatalf("unknown circuit %q", name)
	}
	if !canonicalOrder(a) {
		a, _ = a.Compact()
	}
	return a
}

// matchesOracle stitches the cones through the production stitcher and the
// in-order strash replay and requires the same merged structure (up to
// renumbering — the level-synchronous merge picks different winner ids, but
// the quotient DAG must be the same) and the same total conflict count.
func matchesOracle(t *testing.T, base *aig.AIG, parts []*part, cones []*aig.AIG, pool *sched.Pool) *aig.AIG {
	t.Helper()
	seq, seqConf, err := stitch(base, parts, cones)
	if err != nil {
		t.Fatal(err)
	}
	par, parConf, err := stitchParallel(context.Background(), base, parts, cones, pool)
	if err != nil {
		t.Fatal(err)
	}
	if err := aig.Check(par); err != nil {
		t.Fatal(err)
	}
	seqTotal, parTotal := 0, 0
	for i := range seqConf {
		seqTotal += seqConf[i]
		parTotal += parConf[i]
	}
	if seqTotal != parTotal {
		t.Errorf("conflict totals differ: oracle %d, stitchParallel %d", seqTotal, parTotal)
	}
	if err := isomorphic(seq, par); err != nil {
		t.Errorf("stitched networks not isomorphic: %v", err)
	}
	return par
}

// TestParallelStitchMatchesSequential replays the checkpoint cones and the
// "b; rw"-optimized cones of benchmark circuits, split both ways, through
// the stitcher and its oracle.
func TestParallelStitchMatchesSequential(t *testing.T) {
	pool := sched.NewPool(4)
	defer pool.Close()
	for _, name := range []string{"multiplier", "mem_ctrl", "ac97_ctrl", "voter", "sin"} {
		name := name
		t.Run(name, func(t *testing.T) {
			base := canonicalBase(t, name)
			target := base.NumAnds()/6 + 1
			for mode, parts := range map[Mode][]*part{Cones: buildCones(base, target), Levels: buildWindows(base, target)} {
				if len(parts) < 2 {
					continue // a single-output circuit does not split into cones
				}
				t.Log(mode, len(parts), "partitions")
				cones := extractAll(context.Background(), base, parts, pool)
				matchesOracle(t, base, parts, cones, pool)
				for i, c := range cones {
					res, err := flow.Run(context.Background(), c, "b; rw", flow.Config{Cache: rcache.New()})
					if err != nil {
						t.Fatal(err)
					}
					cones[i] = res.AIG
				}
				matchesOracle(t, base, parts, cones, pool)
			}
		})
	}
}

// TestStitchBoundaryOutputKinds covers window outputs that are not plain
// AND nodes after optimization: a constant, a complemented literal and an
// input passthrough, each read by a higher window and by a PO.
func TestStitchBoundaryOutputKinds(t *testing.T) {
	base := aig.New(3)
	x, y, z := base.PI(0), base.PI(1), base.PI(2)
	n4 := base.AddAndUnchecked(x, y)
	n5 := base.AddAndUnchecked(x, y.Not())
	n6 := base.AddAndUnchecked(n4, z)
	n7 := base.AddAndUnchecked(n5.Not(), n6)
	n8 := base.AddAndUnchecked(n7, n4.Not())
	for _, l := range []aig.Lit{n4, n5.Not(), n6, n8} {
		base.AddPO(l)
	}
	parts := []*part{
		{index: 0, inputs: []int32{1, 2}, members: []int32{4, 5}, outputs: []int32{4, 5}},
		{index: 1, inputs: []int32{4, 3, 5}, members: []int32{6, 7}, outputs: []int32{6, 7}},
		{index: 2, inputs: []int32{7, 4}, members: []int32{8}, outputs: []int32{8}},
	}
	pool := sched.NewPool(2)
	defer pool.Close()
	pres := extractAll(context.Background(), base, parts, pool)

	// Stand-ins for optimized cones, over the same inputs and outputs: part
	// 0 exports an AND and a complemented AND, part 1 an input passthrough
	// (node 4) and a complemented passthrough, part 2 a constant.
	c0 := aig.New(2)
	c0.AddPO(c0.AddAndUnchecked(c0.PI(0), c0.PI(1)))
	c0.AddPO(c0.AddAndUnchecked(c0.PI(0).Not(), c0.PI(1)).Not())
	c1 := aig.New(3)
	c1.AddPO(c1.PI(0))
	c1.AddPO(c1.PI(2).Not())
	c2 := aig.New(2)
	c2.AddPO(aig.ConstTrue)
	merged := matchesOracle(t, base, parts, []*aig.AIG{c0, c1, c2}, pool)
	if got := merged.POs(); merged.NumAnds() != 2 || got[2] != got[0] || got[3] != aig.ConstTrue {
		t.Errorf("stand-in cones stitched to %d ANDs, POs %v", merged.NumAnds(), got)
	}
	fullCEC(t, base, matchesOracle(t, base, parts, pres, pool))

	// The typed errors of the pre-pass: an input no lower partition drives,
	// interface count mismatches, and a PO whose driver was never stitched.
	swapped := []*part{parts[1], parts[0], parts[2]}
	if _, _, err := stitchParallel(context.Background(), base, swapped, []*aig.AIG{pres[1], pres[0], pres[2]}, pool); err == nil {
		t.Error("input read before its partition is stitched: no error")
	}
	if _, _, err := stitchParallel(context.Background(), base, parts, []*aig.AIG{pres[0], pres[0], pres[2]}, pool); err == nil {
		t.Error("PI count mismatch: no error")
	}
	if _, _, err := stitchParallel(context.Background(), base, parts, []*aig.AIG{pres[0], pres[1], c0}, pool); err == nil {
		t.Error("PO count mismatch: no error")
	}
	if _, _, err := stitchParallel(context.Background(), base, parts[:2], pres[:2], pool); err == nil {
		t.Error("PO driver not stitched: no error")
	}
}

// TestParallelStitchWorkerIndependence pins the determinism contract of the
// InsertMin merge in both modes: the stitched network must be bit-identical
// across worker counts (and across repeated runs through the pooled scratch
// arrays).
func TestParallelStitchWorkerIndependence(t *testing.T) {
	base := canonicalBase(t, "mem_ctrl")
	target := base.NumAnds()/8 + 1
	pool1 := sched.NewPool(1)
	defer pool1.Close()
	for mode, parts := range map[Mode][]*part{Cones: buildCones(base, target), Levels: buildWindows(base, target)} {
		pres := extractAll(context.Background(), base, parts, pool1)
		want, _, err := stitchParallel(context.Background(), base, parts, pres, pool1)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4, 8} {
			pool := sched.NewPool(w)
			for round := 0; round < 2; round++ {
				got, _, err := stitchParallel(context.Background(), base, parts, pres, pool)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameAIG(want, got); err != nil {
					t.Errorf("%v W=%d round %d: %v", mode, w, round, err)
				}
			}
			pool.Close()
		}
	}
}
