package cut

import (
	"math/rand"
	"testing"

	"aigre/internal/aig"
	"aigre/internal/alloctest"
)

// TestReconvGrowthAllocBudget: a Reconv kept across 1,000 single-node
// growths of its network, as in-place refactoring grows it, regrows its
// stamps geometrically. The whole run allocates O(n) — the network's clone
// and its append growth, the first stamps and one doubling, under 48 B per
// object — where a regrowth to exactly NumObjs per growth cost 4 B per
// object per edit.
func TestReconvGrowthAllocBudget(t *testing.T) {
	alloctest.SkipIfRace(t)
	const edits = 1000
	base := aig.Random(rand.New(rand.NewSource(5)), 32, 20000, 16)
	base.ReleaseStrash()
	got := alloctest.Bytes(func() {
		a := base.Clone()
		r := NewReconv(a)
		for range edits {
			last := int32(a.NumObjs() - 1)
			n := a.AddAndUnchecked(aig.MakeLit(last, false), aig.MakeLit(last-1, true))
			r.Cut(n.Var(), 8)
		}
	})
	objs := base.NumObjs() + edits
	budget := uint64(48 * objs)
	t.Logf("%d B over %d objects (budget %d B)", got, objs, budget)
	if got > budget {
		t.Errorf("%d cuts across %d growths allocated %d B on %d objects, budget %d B", edits, edits, got, objs, budget)
	}
}
