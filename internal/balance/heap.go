package balance

// itemHeap is a binary min-heap over (delay, literal), the per-subtree
// reconstruction table entry ordering. Ties break on the literal value, so
// one subtree's pairing order is fixed by its items. The literals are not
// fixed across worker counts: when two subtrees create the same AND in one
// insertion pass, whichever InsertUnique lands first picks the literal both
// get.
type itemHeap struct{ s []item }

func itemLess(a, b item) bool {
	if a.delay != b.delay {
		return a.delay < b.delay
	}
	return a.lit < b.lit
}

// heapify re-establishes the heap invariant over the current slice in place,
// so a preallocated itemHeap value can be rebound to a new item set without
// allocating.
func (h *itemHeap) heapify() {
	for i := len(h.s)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

func (h *itemHeap) len() int { return len(h.s) }

func (h *itemHeap) push(it item) {
	h.s = append(h.s, it)
	i := len(h.s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !itemLess(h.s[i], h.s[parent]) {
			break
		}
		h.s[i], h.s[parent] = h.s[parent], h.s[i]
		i = parent
	}
}

func (h *itemHeap) pop() item {
	top := h.s[0]
	last := len(h.s) - 1
	h.s[0] = h.s[last]
	h.s = h.s[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

func (h *itemHeap) down(i int) {
	n := len(h.s)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && itemLess(h.s[l], h.s[smallest]) {
			smallest = l
		}
		if r < n && itemLess(h.s[r], h.s[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.s[i], h.s[smallest] = h.s[smallest], h.s[i]
		i = smallest
	}
}
