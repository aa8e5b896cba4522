package aig

// Simulate performs 64-way bit-parallel simulation. piValues holds w words
// per PI (piValues[i] are the patterns of PI i); all PIs must have the same
// word count. It returns one slice of w words per PO.
//
// The network is swept once per pattern word over one value word per node,
// reused across the sweeps, so the scratch is 8 bytes per node whatever w is
// (DESIGN.md, "Failure model & verification", has the measurements behind
// sweeping one word at a time and not two, four or eight).
func (a *AIG) Simulate(piValues [][]uint64) [][]uint64 {
	if len(piValues) != int(a.numPIs) {
		panic("aig: Simulate needs one value slice per PI")
	}
	w := 0
	if a.numPIs > 0 {
		w = len(piValues[0])
	}
	for _, v := range piValues {
		if len(v) != w {
			panic("aig: Simulate input width mismatch")
		}
	}
	rows := make([]uint64, len(a.pos)*w)
	out := make([][]uint64, len(a.pos))
	for i := range out {
		out[i] = rows[i*w : (i+1)*w : (i+1)*w]
	}
	if w == 0 {
		return out
	}
	// A network built by appending is topological by id and needs no order;
	// in-place edits (ReplaceNode) can leave a fanin above its fanout.
	byID := a.isTopoByID()
	var order []int32
	if !byID {
		order = a.TopoOrder(false)
	}
	vals := make([]uint64, len(a.fanin0)) // vals[0], the constant, stays zero
	for col := 0; col < w; col++ {
		for i, v := range piValues {
			vals[i+1] = v[col]
		}
		if byID {
			// A deleted node is evaluated too: no live node reads its
			// value, and skipping it would cost a branch per node.
			for id := int(a.numPIs) + 1; id < len(a.fanin0); id++ {
				vals[id] = andWord(vals, a.fanin0[id], a.fanin1[id])
			}
		} else {
			for _, id := range order {
				vals[id] = andWord(vals, a.fanin0[id], a.fanin1[id])
			}
		}
		for i, p := range a.pos {
			out[i][col] = vals[p>>1] ^ maskOf(p)
		}
	}
	return out
}

// andWord evaluates one AND node on the 64 patterns held in vals.
func andWord(vals []uint64, f0, f1 Lit) uint64 {
	return (vals[f0>>1] ^ maskOf(f0)) & (vals[f1>>1] ^ maskOf(f1))
}

// maskOf returns all ones for a complemented literal and zero otherwise.
func maskOf(l Lit) uint64 { return -uint64(l & 1) }

// EvalOnce evaluates the AIG on a single Boolean input assignment and
// returns the PO values. Intended for small tests; use Simulate for bulk
// evaluation.
func (a *AIG) EvalOnce(inputs []bool) []bool {
	words := make([][]uint64, a.numPIs)
	for i := range words {
		w := uint64(0)
		if inputs[i] {
			w = 1
		}
		words[i] = []uint64{w}
	}
	sim := a.Simulate(words)
	out := make([]bool, len(sim))
	for i := range sim {
		out[i] = sim[i][0]&1 != 0
	}
	return out
}
