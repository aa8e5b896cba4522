// Package hashtable implements the paper's GPU-parallel hash table
// (Section III-E): an open-addressing table with linear probing whose
// batched insert and query operations are lock-free and safe to call from
// thousands of concurrent kernel threads. It is the backbone of the
// de-duplication pass, where the new nodes of parallel replacement meet the
// existing ones, and of sharing-aware node creation in parallel balancing.
//
// As on the device, a table's capacity is fixed before its kernel runs: every
// caller sizes it for the keys it can insert (New allocates at least twice
// the hint), so a table is never more than half full. An insert that finds
// no empty slot is a sizing bug and panics; inside a kernel the gpu layer
// turns that panic into a *gpu.LaunchError like any other.
//
// Compared to the chained design used by the earlier GPU rewriting work [9],
// linear probing keeps probes within consecutive memory, benefiting from
// locality; go test -bench InsertQuery measures the two head-to-head
// against a test-only chained table.
package hashtable

import (
	"fmt"
	"sync"
	"sync/atomic"

	"aigre/internal/aig"
)

const (
	emptyKey   = uint64(0)
	invalidVal = ^uint32(0)
)

// InvalidValue is returned by Query for absent keys. Values equal to
// InvalidValue must not be inserted.
const InvalidValue = invalidVal

// Table is a fixed-capacity concurrent hash table from non-zero uint64 keys
// to uint32 values. The zero key is reserved as the empty marker; AIG
// structural keys are never zero for real AND nodes (an AND of two
// constant-false literals is simplified away before hashing).
//
// All methods except Reset are safe for concurrent use.
type Table struct {
	keys []uint64
	vals []uint32
	mask uint64
}

// New creates a table able to hold at least capacityHint entries at a load
// factor of at most 1/2.
func New(capacityHint int) *Table {
	size := SizeFor(capacityHint)
	t := &Table{
		keys: make([]uint64, size),
		vals: make([]uint32, size),
		mask: uint64(size - 1),
	}
	for i := range t.vals {
		t.vals[i] = invalidVal
	}
	return t
}

// SizeFor returns the slot count New(capacityHint) would allocate. Callers
// that pool tables use it to match a recycled table against the exact size a
// fresh one would have, keeping pooled and unpooled behavior identical.
func SizeFor(capacityHint int) int {
	if capacityHint < 4 {
		capacityHint = 4
	}
	size := 1
	for size < 2*capacityHint {
		size <<= 1
	}
	return size
}

// pool recycles pass-scoped tables (the de-duplication pass, which the seam
// stitch runs too).
var pool sync.Pool

// Acquire returns an empty table sized as New(capacityHint) would size it. A
// pooled table is reused only at exactly that slot count, so pooled and
// unpooled passes behave identically.
func Acquire(capacityHint int) *Table {
	if t, _ := pool.Get().(*Table); t != nil && t.Cap() == SizeFor(capacityHint) {
		t.Reset()
		return t
	}
	return New(capacityHint)
}

// Release hands a table back for a later Acquire.
func Release(t *Table) { pool.Put(t) }

// Reset empties the table in place, reusing the existing arrays — the
// allocation-free alternative to New for per-pass tables. Not safe for
// concurrent use; call between kernel launches.
func (t *Table) Reset() {
	clear(t.keys)
	for i := range t.vals {
		t.vals[i] = invalidVal
	}
}

// Cap returns the number of slots.
func (t *Table) Cap() int { return len(t.keys) }

// checkInsert panics on a key or value the table cannot store.
func checkInsert(key uint64, val uint32) {
	if key == emptyKey {
		panic("hashtable: zero key is reserved")
	}
	if val == invalidVal {
		panic("hashtable: invalid value")
	}
}

// overflow is the panic of an insert that probed every slot without finding
// key or an empty one: the table was built for fewer keys than its caller
// inserts.
func (t *Table) overflow() {
	panic(fmt.Sprintf("hashtable: all %d slots taken: the capacity hint is too small for the keys inserted", len(t.keys)))
}

// InsertUnique inserts (key, val) if key is absent and returns the value now
// associated with key together with whether this call inserted it. This is
// the paper's shareable-node discovery primitive: create a candidate node
// id, InsertUnique(key, id); if the returned value differs from id, an
// equivalent node already exists and the candidate should be discarded.
// Between racing threads the first slot claim wins.
func (t *Table) InsertUnique(key uint64, val uint32) (uint32, bool) {
	checkInsert(key, val)
	i := aig.HashKey(key) & t.mask
	for range t.keys {
		k := atomic.LoadUint64(&t.keys[i])
		if k == emptyKey {
			if atomic.CompareAndSwapUint64(&t.keys[i], emptyKey, key) {
				atomic.StoreUint32(&t.vals[i], val)
				return val, true
			}
			k = atomic.LoadUint64(&t.keys[i]) // lost the slot race
		}
		if k == key {
			return t.waitVal(i), false
		}
		i = (i + 1) & t.mask
	}
	t.overflow()
	return invalidVal, false
}

// InsertMin inserts (key, val) if key is absent; when key is present it
// lowers the stored value to min(stored, val). Unlike InsertUnique's
// first-caller-wins race, the winning value is determined by the values
// alone, so a batch of concurrent InsertMin calls leaves the table in a
// state independent of scheduling (the minimum value offered for a key
// wins, matching a sequential first-encounter replay of the same batch in
// value order). No engine calls it: the de-duplication pass gets the same
// independence from InsertUnique plus a rank min per class.
func (t *Table) InsertMin(key uint64, val uint32) {
	checkInsert(key, val)
	i := aig.HashKey(key) & t.mask
	for range t.keys {
		k := atomic.LoadUint64(&t.keys[i])
		if k == emptyKey {
			if atomic.CompareAndSwapUint64(&t.keys[i], emptyKey, key) {
				atomic.StoreUint32(&t.vals[i], val)
				return
			}
			k = atomic.LoadUint64(&t.keys[i]) // lost the slot race
		}
		if k == key {
			for {
				cur := atomic.LoadUint32(&t.vals[i])
				if cur == invalidVal {
					// The slot claimant has not yet published its value; the
					// only transition out of invalidVal is that publication,
					// so spin rather than race its plain store.
					continue
				}
				if cur <= val || atomic.CompareAndSwapUint32(&t.vals[i], cur, val) {
					return
				}
			}
		}
		i = (i + 1) & t.mask
	}
	t.overflow()
}

// waitVal spins until the slot's value has been published by the inserting
// thread. The window between the key CAS and the value store is a few
// instructions, so the spin is effectively bounded.
func (t *Table) waitVal(i uint64) uint32 {
	for {
		if v := atomic.LoadUint32(&t.vals[i]); v != invalidVal {
			return v
		}
	}
}

// Query returns the value for key, or (InvalidValue, false) when absent.
func (t *Table) Query(key uint64) (uint32, bool) {
	if key == emptyKey {
		return invalidVal, false
	}
	i := aig.HashKey(key) & t.mask
	for range t.keys {
		k := atomic.LoadUint64(&t.keys[i])
		if k == emptyKey {
			return invalidVal, false
		}
		if k == key {
			return t.waitVal(i), true
		}
		i = (i + 1) & t.mask
	}
	return invalidVal, false
}
