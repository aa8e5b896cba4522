package aig

import "fmt"

// EnableFanouts builds fanout lists and PO reference counts for the current
// network. Fanout tracking is required by in-place editing (ReplaceNode) and
// by reference-count based MFFC computation. NewAnd keeps the structures up
// to date once enabled.
func (a *AIG) EnableFanouts() {
	n := len(a.fanin0)
	a.fanouts = make([][]int32, n)
	a.nPORefs = make([]int32, n)
	if a.deleted == nil {
		a.deleted = make([]bool, n)
	}
	// Build in CSR style: count exact fanout degrees, carve one shared arena
	// into per-node slices (three-index, so a later append past a node's
	// initial degree reallocates just that node's slice), then fill. The
	// per-node append of the naive build was close to one allocation per
	// edge — about 0.9M allocs on a million-node network, repeated by every
	// partition job — and the resulting pointer-chased headers false-shared
	// across workers.
	counts := make([]int32, n)
	for id := a.numPIs + 1; int(id) < n; id++ {
		if a.deleted[id] {
			continue
		}
		counts[a.fanin0[id].Var()]++
		counts[a.fanin1[id].Var()]++
	}
	total := 0
	for _, c := range counts {
		total += int(c)
	}
	arena := make([]int32, total)
	off := 0
	for v := range counts {
		c := int(counts[v])
		a.fanouts[v] = arena[off : off : off+c]
		off += c
	}
	for id := a.numPIs + 1; int(id) < n; id++ {
		if a.deleted[id] {
			continue
		}
		a.addFanout(a.fanin0[id].Var(), id)
		a.addFanout(a.fanin1[id].Var(), id)
	}
	for _, p := range a.pos {
		a.nPORefs[p.Var()]++
	}
}

func (a *AIG) addFanout(v, fanout int32) {
	a.fanouts[v] = append(a.fanouts[v], fanout)
}

func (a *AIG) removeFanout(v, fanout int32) {
	fo := a.fanouts[v]
	for i, f := range fo {
		if f == fanout {
			fo[i] = fo[len(fo)-1]
			a.fanouts[v] = fo[:len(fo)-1]
			return
		}
	}
	panic(fmt.Sprintf("aig: fanout %d not found on node %d", fanout, v))
}

// FanoutCount returns the number of references to node id: AND fanout edges
// plus PO references. A node whose two fanins are the same counts twice.
// Requires EnableFanouts.
func (a *AIG) FanoutCount(id int32) int {
	return len(a.fanouts[id]) + int(a.nPORefs[id])
}

// Fanouts returns the AND fanout node ids of id (PO references excluded).
// The returned slice is owned by the AIG and must not be modified.
func (a *AIG) Fanouts(id int32) []int32 { return a.fanouts[id] }

// FanoutCounts returns a freshly computed reference count per node (AND
// fanout edges plus PO references) without requiring fanout tracking.
func (a *AIG) FanoutCounts() []int32 {
	counts := make([]int32, len(a.fanin0))
	for id := a.numPIs + 1; int(id) < len(a.fanin0); id++ {
		if a.IsDeleted(id) {
			continue
		}
		counts[a.fanin0[id].Var()]++
		counts[a.fanin1[id].Var()]++
	}
	for _, p := range a.pos {
		counts[p.Var()]++
	}
	return counts
}
