package cut

import (
	"aigre/internal/aig"
	"aigre/internal/truth"
)

// The allocating, map-based cone kit the scratch-based one replaced, kept as
// the reference TestScratchConeTruthMatchesMapVersion compares against.

// coneNodes returns the AND nodes of the logic cone of root bounded by
// leaves, in topological order with root last. The constant node and leaves
// themselves are not included.
func coneNodes(a *aig.AIG, root int32, leaves []int32) []int32 {
	isLeaf := make(map[int32]bool, len(leaves))
	for _, l := range leaves {
		isLeaf[l] = true
	}
	var order []int32
	visited := map[int32]bool{}
	var stack []int32
	stack = append(stack, root)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		if visited[cur] || isLeaf[cur] || !a.IsAnd(cur) {
			stack = stack[:len(stack)-1]
			continue
		}
		v0, v1 := a.Fanin0(cur).Var(), a.Fanin1(cur).Var()
		ready := true
		for _, v := range [2]int32{v0, v1} {
			if !visited[v] && !isLeaf[v] && a.IsAnd(v) {
				stack = append(stack, v)
				ready = false
			}
		}
		if !ready {
			continue
		}
		visited[cur] = true
		order = append(order, cur)
		stack = stack[:len(stack)-1]
	}
	return order
}

// refConeTruth16 is the map-based oracle of Scratch.ConeTruth16.
func refConeTruth16(a *aig.AIG, rootLit aig.Lit, leaves []int32) (uint16, bool) {
	var leafTT = [4]uint16{0xAAAA, 0xCCCC, 0xF0F0, 0xFF00}
	tts := make(map[int32]uint16, 8)
	tts[0] = 0
	for i, l := range leaves {
		tts[l] = leafTT[i]
	}
	root := rootLit.Var()
	if _, ok := tts[root]; !ok {
		// Iterative post-order evaluation bounded by the leaves.
		stack := []int32{root}
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			if _, done := tts[cur]; done {
				stack = stack[:len(stack)-1]
				continue
			}
			if !a.IsAnd(cur) {
				return 0, false // reached a PI outside the cut
			}
			f0, f1 := a.Fanin0(cur), a.Fanin1(cur)
			t0, ok0 := tts[f0.Var()]
			t1, ok1 := tts[f1.Var()]
			if !ok0 {
				stack = append(stack, f0.Var())
				continue
			}
			if !ok1 {
				stack = append(stack, f1.Var())
				continue
			}
			if f0.IsCompl() {
				t0 = ^t0
			}
			if f1.IsCompl() {
				t1 = ^t1
			}
			tts[cur] = t0 & t1
			stack = stack[:len(stack)-1]
			if len(tts) > 4096 {
				return 0, false // runaway cone: not a valid small cut
			}
		}
	}
	res := tts[root]
	if rootLit.IsCompl() {
		res = ^res
	}
	return res, true
}

// refConeTruth is the map-based oracle of Scratch.ConeTruth.
func refConeTruth(a *aig.AIG, rootLit aig.Lit, leaves []int32) truth.TT {
	n := len(leaves)
	tts := make(map[int32]truth.TT, 2*n)
	tts[0] = truth.Const(n, false)
	for i, l := range leaves {
		tts[l] = truth.Var(n, i)
	}
	root := rootLit.Var()
	if _, ok := tts[root]; !ok {
		for _, id := range coneNodes(a, root, leaves) {
			f0, f1 := a.Fanin0(id), a.Fanin1(id)
			t0, ok0 := tts[f0.Var()]
			t1, ok1 := tts[f1.Var()]
			if !ok0 || !ok1 {
				panic("cut: cone escapes the leaf boundary")
			}
			if f0.IsCompl() {
				t0 = truth.New(n).Not(t0)
			}
			if f1.IsCompl() {
				t1 = truth.New(n).Not(t1)
			}
			tts[id] = truth.New(n).And(t0, t1)
		}
	}
	res := tts[root].Clone()
	if rootLit.IsCompl() {
		res.Not(res)
	}
	return res
}
