package aig

import "fmt"

// walk is the package's one topological traversal. It returns the live AND
// nodes reachable from the POs (fromPOs) or all live AND nodes, in the
// post-order of an iterative depth-first search that visits fanin0 first,
// from roots taken in PO order or in ascending id order. With keepOrder
// false it only validates, and the order it returns is nil. Every order,
// cycle check and validity check of the package is a caller of it.
//
// The walk validates what it touches: a root PO must name an existing live
// node, and every step from a node to a fanin must land in range, on a node
// that is not deleted (checked once, as the fanin turns grey and joins the
// DFS path) and not on the path itself (the node, or a cycle). The first
// violation is returned as an error naming the node. The stack is the
// current path, so a node is never pushed twice.
func (a *AIG) walk(fromPOs, keepOrder bool) ([]int32, error) {
	const (
		white = byte(0) // unvisited
		grey  = byte(1) // on the DFS path
		black = byte(2) // emitted
	)
	fanin0, fanin1, deleted, pis := a.fanin0, a.fanin1, a.deleted, a.numPIs
	n := int32(len(fanin0))
	var order []int32
	if keepOrder {
		order = make([]int32, 0, a.NumAnds())
	}
	color := make([]byte, n)
	for id := int32(0); id <= pis && id < n; id++ {
		color[id] = black
	}
	roots := n - pis - 1
	if fromPOs {
		roots = int32(len(a.pos))
	}
	var stack []int32
	for r := int32(0); r < roots; r++ {
		root := pis + 1 + r
		if fromPOs {
			if err := a.checkPO(int(r), a.pos[r]); err != nil {
				return nil, err
			}
			root = a.pos[r].Var()
		}
		if color[root] != white || deleted != nil && deleted[root] {
			continue
		}
		// A root whose fanins are both emitted (in a canonical network,
		// every root) is emitted without a push.
		v0, v1 := fanin0[root].Var(), fanin1[root].Var()
		if v0 < n && v1 < n && color[v0] == black && color[v1] == black {
			color[root] = black
			if keepOrder {
				order = append(order, root)
			}
			continue
		}
		color[root] = grey
		stack = append(stack, root)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			v := fanin0[cur].Var()
			if v < n && color[v] == black {
				v = fanin1[cur].Var()
				if v < n && color[v] == black {
					color[cur] = black
					if keepOrder {
						order = append(order, cur)
					}
					stack = stack[:len(stack)-1]
					continue
				}
			}
			if v >= n || color[v] == grey || deleted != nil && deleted[v] {
				return nil, a.faninErr(cur, v)
			}
			color[v] = grey
			stack = append(stack, v)
		}
	}
	return order, nil
}

// faninErr describes why the walk cannot step from node id to its fanin v.
func (a *AIG) faninErr(id, v int32) error {
	switch {
	case int(v) >= len(a.fanin0):
		f := a.fanin0[id]
		if f.Var() != v {
			f = a.fanin1[id]
		}
		return fmt.Errorf("aig: node %d fanin literal %d out of range", id, f)
	case v == id:
		return fmt.Errorf("aig: node %d references itself", id)
	case a.IsDeleted(v):
		return fmt.Errorf("aig: node %d references deleted node %d", id, v)
	}
	return fmt.Errorf("aig: combinational cycle through node %d (fanin of %d)", v, id)
}

// checkPO validates the i-th PO literal p: it must name an existing node
// that is not deleted.
func (a *AIG) checkPO(i int, p Lit) error {
	if v := p.Var(); int(v) >= len(a.fanin0) {
		return fmt.Errorf("aig: PO %d references out-of-range node %d", i, v)
	} else if a.IsDeleted(v) {
		return fmt.Errorf("aig: PO %d references deleted node %d", i, v)
	}
	return nil
}

// Canonical reports whether the network has no deleted nodes and every AND
// node's fanins have smaller ids than the node: the form Compact returns and
// AIGER files store, in which a sweep by id is a topological order.
func (a *AIG) Canonical() bool {
	if a.numDead != 0 {
		return false
	}
	for id := int(a.numPIs) + 1; id < len(a.fanin0); id++ {
		if int(a.fanin0[id].Var()) >= id || int(a.fanin1[id].Var()) >= id {
			return false
		}
	}
	return true
}

// TopoOrder returns the live AND node ids in a topological order (fanins
// before fanouts), restricted to nodes reachable from the POs when
// reachableOnly is true. It panics with the walk's error on an invalid
// network (a dangling or deleted reference, a cycle).
func (a *AIG) TopoOrder(reachableOnly bool) []int32 {
	order, err := a.walk(reachableOnly, true)
	if err != nil {
		panic(err)
	}
	return order
}

// NodeLevels returns the level (delay) of every node: PIs and the constant
// are level 0, an AND node is 1 + max(level of fanins). A canonical network
// is swept by id; one edited in place is swept in TopoOrder(false), and
// NodeLevels panics as TopoOrder does. Deleted nodes have level 0.
func (a *AIG) NodeLevels() []int32 {
	level := make([]int32, len(a.fanin0))
	set := func(id int32) {
		level[id] = max(level[a.fanin0[id].Var()], level[a.fanin1[id].Var()]) + 1
	}
	if a.Canonical() {
		for id := a.numPIs + 1; int(id) < len(level); id++ {
			set(id)
		}
	} else {
		for _, id := range a.TopoOrder(false) {
			set(id)
		}
	}
	return level
}

// Levels returns the delay of the AIG: the maximum level over all POs.
func (a *AIG) Levels() int {
	level := a.NodeLevels()
	var m int32
	for _, p := range a.pos {
		m = max(m, level[p.Var()])
	}
	return int(m)
}

// Compact returns a new AIG containing only the nodes reachable from the
// POs, renumbered in topological order, along with a literal map from old
// node ids to new literals (old dangling nodes map to ConstFalse). This is
// the "dangling node removal" primitive: nodes not reachable from any PO are
// dropped. It panics as TopoOrder does; CompactSafe returns the error.
func (a *AIG) Compact() (*AIG, []Lit) {
	out, mp, err := a.CompactSafe()
	if err != nil {
		panic(err)
	}
	return out, mp
}

// CompactSafe is Compact for networks that cannot be trusted (the AIGER
// writers' input): an out-of-range literal, a reference to a deleted node or
// a combinational cycle is returned as the walk's error.
func (a *AIG) CompactSafe() (*AIG, []Lit, error) {
	order, err := a.walk(true, true)
	if err != nil {
		return nil, nil, err
	}
	out, mp := a.rebuild(order, false)
	return out, mp, nil
}

// Rehash returns a new AIG rebuilt with full structural hashing and constant
// propagation, removing duplicate and dangling nodes in one pass. It is the
// sequential reference for the parallel de-duplication pass. It panics as
// TopoOrder does.
//
// A network that already is a fixed point of the rebuild (rehashedForm) comes
// back as an exact-capacity copy: the rebuild would replay it node for node.
func (a *AIG) Rehash() *AIG {
	order := a.TopoOrder(true)
	if a.rehashedForm(order) {
		return a.copyExact()
	}
	out, _ := a.rebuild(order, true)
	final, _ := out.Compact()
	out.ReleaseStrash()
	return final
}

// rehashedForm reports whether rebuilding the network from its PO order
// would reproduce it id for id, so that Rehash may copy it. It verifies
// rather than trusts: no deleted node, the PO order is exactly the AND ids in
// ascending order (nothing dangles, every fanin id is below its node's),
// every fanin pair is sorted and not folded by SimplifyAnd, and no two nodes
// share a key, checked in one insert pass through a pooled strash table.
func (a *AIG) rehashedForm(order []int32) bool {
	if a.numDead != 0 || len(order) != len(a.fanin0)-int(a.numPIs)-1 {
		return false
	}
	for i, id := range order {
		f0, f1 := a.fanin0[id], a.fanin1[id]
		if id != a.numPIs+1+int32(i) || f0 > f1 {
			return false
		}
		if _, folds := SimplifyAnd(f0, f1); folds {
			return false
		}
	}
	t := newStrashTable(len(order))
	defer t.release()
	for _, id := range order {
		if _, fresh := t.setIfAbsent(Key(a.fanin0[id], a.fanin1[id]), id); !fresh {
			return false
		}
	}
	return true
}

// copyExact returns a copy of the network's fanins, POs and name with
// capacity equal to length, as the rebuild's NewCap sizes its output.
func (a *AIG) copyExact() *AIG {
	return &AIG{
		Name:   a.Name,
		numPIs: a.numPIs,
		fanin0: append(make([]Lit, 0, len(a.fanin0)), a.fanin0...),
		fanin1: append(make([]Lit, 0, len(a.fanin1)), a.fanin1...),
		pos:    append(make([]Lit, 0, len(a.pos)), a.pos...),
	}
}

// rebuild replays a topological order of reachable AND nodes into a fresh
// network, node for node (Compact) or through NewAnd with structural hashing
// (Rehash), and returns it with the literal map from old ids.
func (a *AIG) rebuild(order []int32, hash bool) (*AIG, []Lit) {
	out := NewCap(int(a.numPIs), int(a.numPIs)+1+len(order))
	out.Name = a.Name
	if hash {
		out.EnableStrash()
	}
	mp := make([]Lit, len(a.fanin0))
	mp[0] = ConstFalse
	for id := int32(1); id <= a.numPIs; id++ {
		mp[id] = MakeLit(id, false)
	}
	for _, id := range order {
		f0 := a.fanin0[id]
		f1 := a.fanin1[id]
		n0 := mp[f0.Var()].NotCond(f0.IsCompl())
		n1 := mp[f1.Var()].NotCond(f1.IsCompl())
		if hash {
			mp[id] = out.NewAnd(n0, n1)
		} else {
			mp[id] = out.AddAndUnchecked(n0, n1)
		}
	}
	for _, p := range a.pos {
		out.AddPO(mp[p.Var()].NotCond(p.IsCompl()))
	}
	return out, mp
}
