package aig

import "sync"

// strashTable is the structural-hashing table behind EnableStrash/NewAnd: an
// open-addressed linear-probing map from packed fanin keys (Key) to AND node
// ids. It replaces the earlier map[uint64]int32, whose per-entry overhead and
// rehash allocations dominated the partition-parallel memory profile — eight
// concurrent partition jobs each rebuilding a million-entry Go map serialized
// on the allocator and the GC. The backing arrays are recycled through
// typed free-lists (slicePool, ReleaseStrash), so in steady state a rebuild
// allocates nothing.
//
// Slot states live in vals: 0 = empty, < 0 = tombstone, > 0 = node id (AND
// ids are always >= 1, so 0 is free as the empty marker and keys need no
// reserved values — a key of 0 is legal). Probing follows aig.HashKey, the
// same splitmix64 finalizer the concurrent hashtable package uses, so the
// sequential and kernel-side tables agree on hashing behavior.
type strashTable struct {
	keys []uint64
	vals []int32
	mask uint64
	live int // entries with a node id
	used int // live entries plus tombstones (probe-chain occupancy)
}

var (
	strashKeyPool slicePool[uint64]
	strashValPool slicePool[int32]
)

// slicePool recycles the backing arrays of strash tables; the zero value is
// ready to use. It is a thin veneer over sync.Pool: concurrency-safe and
// GC-friendly (idle arrays are reclaimed under memory pressure).
//
// sync.Pool stores interface values, and boxing a slice header into an
// interface heap-allocates 24 bytes — which would make every put cost an
// allocation and defeat the pool. The pool therefore stores *[]T boxes and
// recycles the boxes themselves through a second free-list, so a steady-state
// get/put cycle allocates nothing.
type slicePool[T any] struct {
	full  sync.Pool // *[]T boxes holding a recycled backing array
	empty sync.Pool // *[]T boxes with a nil slice, awaiting the next put
}

// get returns a slice of length n. The contents are arbitrary (whatever the
// previous user left behind); callers that need zeroed memory use getZeroed.
func (p *slicePool[T]) get(n int) []T {
	if v := p.full.Get(); v != nil {
		b := v.(*[]T)
		s := *b
		*b = nil
		p.empty.Put(b)
		if cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// getZeroed returns a slice of length n with every element set to the zero
// value of T.
func (p *slicePool[T]) getZeroed(n int) []T {
	s := p.get(n)
	clear(s)
	return s
}

// put returns a slice to the pool; nil and zero-capacity slices are ignored.
// The caller must not use s afterwards.
func (p *slicePool[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	b, _ := p.empty.Get().(*[]T)
	if b == nil {
		b = new([]T)
	}
	*b = s[:0]
	p.full.Put(b)
}

// strashSizeFor returns the slot count for a capacity hint: the next power of
// two holding hint entries at a load factor of at most 1/2 (the exact-sizing
// discipline of hashtable.SizeFor, so pooled arrays match across rebuilds of
// same-sized networks).
func strashSizeFor(hint int) int {
	if hint < 8 {
		hint = 8
	}
	size := 1
	for size < 2*hint {
		size <<= 1
	}
	return size
}

// newStrashTable acquires a table sized for hint entries from the pools. The
// key array is left dirty (vals gate slot validity); the val array is zeroed.
func newStrashTable(hint int) *strashTable {
	size := strashSizeFor(hint)
	return &strashTable{
		keys: strashKeyPool.get(size),
		vals: strashValPool.getZeroed(size),
		mask: uint64(size - 1),
	}
}

// release returns the backing arrays to the pools. The table must not be used
// afterwards.
func (t *strashTable) release() {
	strashKeyPool.put(t.keys)
	strashValPool.put(t.vals)
	t.keys, t.vals = nil, nil
}

// get returns the node id stored for k. Probe loops terminate because grow
// keeps at least a quarter of the slots empty. Like a nil-map read, get on a
// nil table reports absence.
func (t *strashTable) get(k uint64) (int32, bool) {
	if t == nil {
		return 0, false
	}
	i := HashKey(k) & t.mask
	for {
		v := t.vals[i]
		if v == 0 {
			return 0, false
		}
		if v > 0 && t.keys[i] == k {
			return v, true
		}
		i = (i + 1) & t.mask
	}
}

// set stores id for k, overwriting an existing entry (map-assignment
// semantics). New entries reuse the first tombstone on the probe path.
func (t *strashTable) set(k uint64, id int32) {
	i := HashKey(k) & t.mask
	tomb := -1
	for {
		v := t.vals[i]
		if v == 0 {
			if tomb >= 0 {
				i = uint64(tomb)
			} else {
				t.used++
			}
			t.keys[i] = k
			t.vals[i] = id
			t.live++
			t.maybeGrow()
			return
		}
		if v < 0 {
			if tomb < 0 {
				tomb = int(i)
			}
		} else if t.keys[i] == k {
			t.vals[i] = id
			return
		}
		i = (i + 1) & t.mask
	}
}

// setIfAbsent stores id for k unless k is present, returning the value now
// associated with k and whether this call inserted it.
func (t *strashTable) setIfAbsent(k uint64, id int32) (int32, bool) {
	i := HashKey(k) & t.mask
	tomb := -1
	for {
		v := t.vals[i]
		if v == 0 {
			if tomb >= 0 {
				i = uint64(tomb)
			} else {
				t.used++
			}
			t.keys[i] = k
			t.vals[i] = id
			t.live++
			t.maybeGrow()
			return id, true
		}
		if v < 0 {
			if tomb < 0 {
				tomb = int(i)
			}
		} else if t.keys[i] == k {
			return v, false
		}
		i = (i + 1) & t.mask
	}
}

// delIf removes the entry for k when it names exactly id (the guarded-delete
// idiom of in-place editing: a key is unhooked only by the node that owns
// it). The slot becomes a tombstone so longer probe chains stay intact. Like
// a nil-map delete, delIf on a nil table is a no-op — deleteCone runs with
// strash disabled when only fanout tracking is on.
func (t *strashTable) delIf(k uint64, id int32) {
	if t == nil {
		return
	}
	i := HashKey(k) & t.mask
	for {
		v := t.vals[i]
		if v == 0 {
			return
		}
		if v > 0 && t.keys[i] == k {
			if v == id {
				t.vals[i] = -1
				t.live--
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// forEach calls fn for every live entry (iteration order is unspecified, as
// with the map it replaced).
func (t *strashTable) forEach(fn func(k uint64, id int32)) {
	for i, v := range t.vals {
		if v > 0 {
			fn(t.keys[i], v)
		}
	}
}

// maybeGrow rehashes once probe-chain occupancy (live entries plus
// tombstones) passes 3/4 of the slots, sizing the new table by the live
// count alone — a rebuild after heavy deletion purges the tombstones and can
// shrink occupancy well below the trigger.
func (t *strashTable) maybeGrow() {
	if t.used*4 < len(t.keys)*3 {
		return
	}
	old := *t
	size := strashSizeFor(2*t.live + 8)
	t.keys = strashKeyPool.get(size)
	t.vals = strashValPool.getZeroed(size)
	t.mask = uint64(size - 1)
	t.live, t.used = 0, 0
	for i, v := range old.vals {
		if v > 0 {
			t.set(old.keys[i], v)
		}
	}
	strashKeyPool.put(old.keys)
	strashValPool.put(old.vals)
}

// RebuildStrash (re)builds the structural-hashing table from the current
// network, sized by the live-node count (NumAnds, which already excludes
// deleted nodes) — not by the raw object count, which oversizes the table
// when most nodes have been deleted in place. Deleted ids are skipped without
// hashing them. If duplicate fanin pairs exist, the first (lowest-id)
// occurrence wins. Subsequent NewAnd calls reuse existing nodes with
// identical fanin pairs.
func (a *AIG) RebuildStrash() { a.rebuildStrash(a.NumAnds()) }

func (a *AIG) rebuildStrash(hint int) {
	if a.strash != nil {
		a.strash.release()
	}
	a.strash = newStrashTable(hint)
	for id := a.numPIs + 1; int(id) < len(a.fanin0); id++ {
		if a.IsDeleted(id) {
			continue
		}
		a.strash.setIfAbsent(Key(a.fanin0[id], a.fanin1[id]), id)
	}
}

// ReleaseStrash disables structural hashing and returns the table's backing
// arrays to the package free-lists for the next EnableStrash anywhere in the
// process. Hot paths that build a strashed network per pass call it once the
// network is final (typically right after Compact); forgetting to call it is
// safe — the arrays are simply garbage collected.
func (a *AIG) ReleaseStrash() {
	if a.strash != nil {
		a.strash.release()
		a.strash = nil
	}
}
