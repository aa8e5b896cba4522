package aig

import "fmt"

// Check validates the structural invariants of an AIG and returns the first
// violation found, or nil. It is the integrity gate run by the guarded flow
// layer on every pass output, so it must accept every legal network state
// (including mid-edit states with deleted nodes and non-topological id
// order) while rejecting anything a downstream consumer could trip over:
//
//   - fanin literals of live AND nodes are in range, do not reference the
//     node itself, and do not reference deleted nodes, and the live subgraph
//     is acyclic: one walk over all live nodes, TopoOrder(false)'s;
//   - PO literals are in range and do not reference deleted nodes;
//   - when structural hashing is enabled, every live table entry's key
//     matches the normalized fanin pair of the node it names;
//   - when fanout tracking is enabled, the fanout lists and PO reference
//     counts agree exactly with the fanin edges and PO literals.
func Check(a *AIG) error {
	if int(a.numPIs)+1 > len(a.fanin0) {
		return fmt.Errorf("aig: %d PIs but only %d objects", a.numPIs, len(a.fanin0))
	}
	if _, err := a.walk(false, false); err != nil {
		return err
	}
	for i, p := range a.pos {
		if err := a.checkPO(i, p); err != nil {
			return err
		}
	}
	if a.strash != nil {
		if err := a.checkStrash(); err != nil {
			return err
		}
	}
	if a.fanouts != nil {
		if err := a.checkFanouts(); err != nil {
			return err
		}
	}
	return nil
}

// Check validates structural invariants; see the package-level Check.
func (a *AIG) Check() error { return Check(a) }

// checkStrash verifies that every structural-hashing entry naming a live AND
// node carries that node's normalized fanin key. Entries naming deleted
// nodes are tolerated (Lookup skips them), but an entry must never name a
// non-AND object, and a node's recorded key must match its actual fanins —
// a mismatch means lookups would alias distinct functions.
func (a *AIG) checkStrash() error {
	var err error
	a.strash.forEach(func(k uint64, id int32) {
		if err != nil {
			return
		}
		if !a.IsAnd(id) {
			err = fmt.Errorf("aig: strash key %#x names non-AND object %d", k, id)
			return
		}
		if a.IsDeleted(id) {
			return
		}
		if got := Key(a.fanin0[id], a.fanin1[id]); got != k {
			err = fmt.Errorf("aig: strash key %#x names node %d whose fanin key is %#x", k, id, got)
		}
	})
	return err
}

// checkFanouts verifies that fanout lists and PO reference counts agree with
// the fanin edges: each live AND contributes one fanout entry per fanin edge
// (two entries when both fanins reference the same node), deleted nodes have
// no fanout entries, and nPORefs matches the PO literals exactly.
func (a *AIG) checkFanouts() error {
	n := int32(len(a.fanin0))
	expected := make([]int32, n)
	for id := a.numPIs + 1; id < n; id++ {
		if a.IsDeleted(id) {
			continue
		}
		expected[a.fanin0[id].Var()]++
		expected[a.fanin1[id].Var()]++
	}
	for v := int32(0); v < n; v++ {
		fos := a.fanouts[v]
		if int32(len(fos)) != expected[v] {
			return fmt.Errorf("aig: node %d has %d fanout entries, want %d", v, len(fos), expected[v])
		}
		for _, f := range fos {
			if !a.IsAnd(f) || a.IsDeleted(f) {
				return fmt.Errorf("aig: node %d lists dead fanout %d", v, f)
			}
			if a.fanin0[f].Var() != v && a.fanin1[f].Var() != v {
				return fmt.Errorf("aig: node %d lists fanout %d that does not reference it", v, f)
			}
		}
	}
	poRefs := make([]int32, n)
	for _, p := range a.pos {
		poRefs[p.Var()]++
	}
	for v := int32(0); v < n; v++ {
		if a.nPORefs[v] != poRefs[v] {
			return fmt.Errorf("aig: node %d has PO refcount %d, want %d", v, a.nPORefs[v], poRefs[v])
		}
	}
	return nil
}
