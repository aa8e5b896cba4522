package aig

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// refTopoOrder is TopoOrder as it was before the validating walk: an
// unchecked iterative DFS, fanin0 first, that trusts every reference and
// never terminates on a cycle. Call it only on networks refValid accepts.
func refTopoOrder(a *AIG, reachableOnly bool) []int32 {
	n := len(a.fanin0)
	order := make([]int32, 0, a.NumAnds())
	visited := make([]bool, n)
	visited[0] = true
	for id := int32(1); id <= a.numPIs; id++ {
		visited[id] = true
	}
	var stack []int32
	visit := func(root int32) {
		if visited[root] {
			return
		}
		stack = append(stack[:0], root)
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			if visited[cur] {
				stack = stack[:len(stack)-1]
				continue
			}
			v0 := a.fanin0[cur].Var()
			v1 := a.fanin1[cur].Var()
			if !visited[v0] {
				stack = append(stack, v0)
				continue
			}
			if !visited[v1] {
				stack = append(stack, v1)
				continue
			}
			visited[cur] = true
			order = append(order, cur)
			stack = stack[:len(stack)-1]
		}
	}
	if reachableOnly {
		for _, p := range a.pos {
			if a.IsAnd(p.Var()) {
				visit(p.Var())
			}
		}
	} else {
		for id := a.numPIs + 1; int(id) < n; id++ {
			if !a.IsDeleted(id) {
				visit(id)
			}
		}
	}
	return order
}

// refValid is the walk's contract checked another way: it collects the
// nodes the walk would visit (those reachable from the POs, after checking
// the POs themselves, or every live AND node) in a map, checks their fanins,
// and finds cycles by peeling nodes whose fanins are all done (Kahn).
func refValid(a *AIG, fromPOs bool) bool {
	n := int32(len(a.fanin0))
	bad := func(v int32) bool { return v >= n || a.IsDeleted(v) }
	nodes := map[int32]bool{}
	if fromPOs {
		var stack []int32
		for _, p := range a.pos {
			if bad(p.Var()) {
				return false
			}
			stack = append(stack, p.Var())
		}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v <= a.numPIs || nodes[v] {
				continue
			}
			nodes[v] = true
			for _, f := range [2]Lit{a.fanin0[v], a.fanin1[v]} {
				if !bad(f.Var()) {
					stack = append(stack, f.Var())
				}
			}
		}
	} else {
		for id := a.numPIs + 1; id < n; id++ {
			if !a.IsDeleted(id) {
				nodes[id] = true
			}
		}
	}
	pending := map[int32]int{} // node -> fanins in nodes not yet peeled
	users := map[int32][]int32{}
	for id := range nodes {
		for _, f := range [2]Lit{a.fanin0[id], a.fanin1[id]} {
			v := f.Var()
			if bad(v) || v == id {
				return false
			}
			if nodes[v] {
				pending[id]++
				users[v] = append(users[v], id)
			}
		}
	}
	var ready []int32
	for id := range nodes {
		if pending[id] == 0 {
			ready = append(ready, id)
		}
	}
	peeled := 0
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		peeled++
		for _, u := range users[v] {
			if pending[u]--; pending[u] == 0 {
				ready = append(ready, u)
			}
		}
	}
	return peeled == len(nodes)
}

// idOrdered reports whether every live AND node's fanins have smaller ids.
func idOrdered(a *AIG) bool {
	ok := true
	a.ForEachAnd(func(id int32) {
		ok = ok && a.fanin0[id].Var() < id && a.fanin1[id].Var() < id
	})
	return ok
}

// twoCycle has two AND nodes that are each other's fanin, driving the PO.
func twoCycle() *AIG {
	a := New(1)
	first := a.ExtendSlots(2)
	a.SetFanins(first, MakeLit(first+1, false), a.PI(0))
	a.SetFanins(first+1, MakeLit(first, false), a.PI(0))
	a.AddPO(MakeLit(first, false))
	return a
}

// deletedPO has a PO on an AND node SweepDangling deleted.
func deletedPO() *AIG {
	a := New(2)
	n := a.AddAndUnchecked(a.PI(0), a.PI(1))
	a.EnableFanouts()
	a.SweepDangling()
	a.AddPO(n)
	return a
}

// outOfRangePO has a PO past the last node.
func outOfRangePO() *AIG {
	a := New(1)
	a.AddAndUnchecked(a.PI(0), a.PI(0).Not())
	a.AddPO(MakeLit(9, false))
	return a
}

// TestNoTraversalHangsOrWalksDeadNodes: on a cycle, a PO on a deleted node
// and a PO out of range, every traversal of the package stops within a
// second with the walk's error — panicking with it (TopoOrder and the
// functions built on it) or returning it (CompactSafe, Check).
func TestNoTraversalHangsOrWalksDeadNodes(t *testing.T) {
	type op struct {
		fromPOs bool // the walk whose error the operation reports
		run     func(a *AIG) error
	}
	panics := func(f func(a *AIG)) func(a *AIG) error {
		return func(a *AIG) (err error) {
			defer func() {
				if r := recover(); r != nil {
					if err, _ = r.(error); err == nil {
						err = fmt.Errorf("non-error panic: %v", r)
					}
				}
			}()
			f(a)
			return nil
		}
	}
	ops := map[string]op{
		"TopoOrder(true)":  {true, panics(func(a *AIG) { a.TopoOrder(true) })},
		"TopoOrder(false)": {false, panics(func(a *AIG) { a.TopoOrder(false) })},
		"NodeLevels":       {false, panics(func(a *AIG) { a.NodeLevels() })},
		"Levels":           {false, panics(func(a *AIG) { a.Levels() })},
		"Compact":          {true, panics(func(a *AIG) { a.Compact() })},
		"Simulate":         {false, panics(func(a *AIG) { a.Simulate([][]uint64{{1}}) })},
		"CompactSafe": {true, func(a *AIG) error {
			_, _, err := a.CompactSafe()
			return err
		}},
		"Check": {false, Check},
	}
	rows := []struct {
		name string
		net  func() *AIG
		ops  []string
	}{
		{"cycle", twoCycle, []string{"TopoOrder(true)", "TopoOrder(false)", "NodeLevels", "Levels", "Compact", "Simulate", "CompactSafe", "Check"}},
		{"deleted-po", deletedPO, []string{"TopoOrder(true)", "Compact", "CompactSafe", "Check"}},
		{"out-of-range-po", outOfRangePO, []string{"TopoOrder(true)", "Compact", "CompactSafe", "Check"}},
	}
	for _, row := range rows {
		for _, name := range row.ops {
			o := ops[name]
			a := row.net()
			_, want := a.walk(o.fromPOs, false)
			if want == nil && name == "Check" {
				_, want = a.walk(true, false) // a PO row: Check's PO check is the walk's
			}
			if want == nil {
				t.Fatalf("%s: the walk accepts the network", row.name)
			}
			done := make(chan error, 1)
			go func() { done <- o.run(a) }()
			select {
			case err := <-done:
				if err == nil || err.Error() != want.Error() {
					t.Errorf("%s: %s reported %v, want the walk's error %q", row.name, name, err, want)
				}
			case <-time.After(time.Second):
				// A hung traversal grows its stack without bound: stop the
				// whole test binary rather than leave it running.
				panic(fmt.Sprintf("%s: %s did not stop within 1 s", row.name, name))
			}
		}
	}
}

// corrupt applies nEdits random corruptions to a network without strash or
// fanout tracking — rewired fanins, deleted nodes, back-edges, dangling POs —
// for FuzzWalk and FuzzRehash. Fanins it rewires are stored as they come,
// unsorted.
func corrupt(a *AIG, rng *rand.Rand, nEdits int) {
	if a.deleted == nil {
		a.deleted = make([]bool, a.NumObjs())
	}
	n := int32(a.NumObjs())
	randID := func() int32 { return int32(rng.Intn(int(n) + 2)) } // two past the end
	for e := 0; e < nEdits && n > a.numPIs+1; e++ {
		id := a.numPIs + 1 + int32(rng.Intn(int(n-a.numPIs-1)))
		switch rng.Intn(4) {
		case 0: // rewire a fanin anywhere, in range or not
			a.fanin0[id] = MakeLit(randID(), rng.Intn(2) == 0)
		case 1: // delete a node, whoever still references it
			if !a.deleted[id] {
				a.deleted[id] = true
				a.numDead++
			}
		case 2: // back-edge: a fanin to a later node
			if id+1 < n {
				a.fanin1[id] = MakeLit(id+1+int32(rng.Intn(int(n-id-1))), false)
			}
		case 3: // move a PO
			if len(a.pos) > 0 {
				a.pos[rng.Intn(len(a.pos))] = MakeLit(randID(), false)
			}
		}
	}
}

// FuzzWalk randomly corrupts a Random network — rewired fanins, deleted
// nodes, back-edges, dangling POs — and checks the walk in both modes
// against refValid and, where that accepts, refTopoOrder: the walk fails
// exactly on invalid networks (with or without keeping the order) and
// otherwise returns the reference order. Check must agree with the all-nodes walk plus its PO checks.
func FuzzWalk(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(40), uint8(0))
	f.Add(int64(2), uint8(6), uint8(120), uint8(3))
	f.Add(int64(3), uint8(5), uint8(60), uint8(12))
	f.Add(int64(4), uint8(8), uint8(255), uint8(40))
	f.Fuzz(func(t *testing.T, seed int64, nPIs, nAnds, nEdits uint8) {
		if nPIs < 4 || nPIs > 16 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		a := Random(rng, int(nPIs), int(nAnds), 1+int(nPIs)/2)
		a.ReleaseStrash()
		corrupt(a, rng, int(nEdits))
		n := int32(a.NumObjs())
		for _, fromPOs := range []bool{true, false} {
			order, err := a.walk(fromPOs, true)
			if _, bare := a.walk(fromPOs, false); fmt.Sprint(bare) != fmt.Sprint(err) {
				t.Fatalf("walk(fromPOs=%v) error %v with the order kept, %v without", fromPOs, err, bare)
			}
			if ok := refValid(a, fromPOs); ok != (err == nil) {
				t.Fatalf("walk(fromPOs=%v) error %v, reference valid %v", fromPOs, err, ok)
			} else if ok {
				if want := refTopoOrder(a, fromPOs); !slices.Equal(order, want) {
					t.Fatalf("walk(fromPOs=%v) order %v, reference %v", fromPOs, order, want)
				}
			}
		}
		poOK := true
		for _, p := range a.pos {
			poOK = poOK && p.Var() < n && !a.IsDeleted(p.Var())
		}
		if err := Check(a); (err == nil) != (refValid(a, false) && poOK) {
			t.Fatalf("Check error %v, reference valid %v, POs valid %v", err, refValid(a, false), poOK)
		}
		if !refValid(a, true) {
			return
		}
		// What validates has one form: Compact is idempotent, and Rehash
		// lands on Clean.
		once, _ := a.Compact()
		if twice, _ := once.Compact(); !sameNetwork(once, twice) {
			t.Fatalf("a second Compact renumbered the first's output")
		}
		if !a.Rehash().Clean() {
			t.Fatalf("Rehash output is not Clean")
		}
	})
}

// sameNetwork reports whether x and y have the same PIs, nodes, fanins and
// POs, id for id: the AIGER bytes they would write.
func sameNetwork(x, y *AIG) bool {
	return x.numPIs == y.numPIs && slices.Equal(x.fanin0, y.fanin0) && slices.Equal(x.fanin1, y.fanin1) &&
		slices.Equal(x.pos, y.pos) && slices.Equal(x.deleted, y.deleted)
}
