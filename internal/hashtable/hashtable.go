// Package hashtable implements the paper's GPU-parallel hash table
// (Section III-E): an open-addressing table with linear probing whose
// batched insert and query operations are lock-free and safe to call from
// thousands of concurrent kernel threads. It is the backbone of
// sharing-aware node creation during parallel replacement, of parallel
// structural hashing, and of the de-duplication pass.
//
// Compared to the chained design used by the earlier GPU rewriting work [9],
// linear probing keeps probes within consecutive memory, benefiting from
// locality; go test -bench InsertQuery measures the two head-to-head
// against a test-only chained table.
package hashtable

import (
	"errors"
	"sync"
	"sync/atomic"

	"aigre/internal/aig"
	"aigre/internal/gpu"
)

const (
	emptyKey   = uint64(0)
	invalidVal = ^uint32(0)
)

// ErrTableFull is returned by InsertUnique when the table has no free slot
// left for a new key. Kernel callers propagate it by panicking with the
// error, which the gpu layer converts into a typed *gpu.LaunchError (the
// guarded flow layer then rolls the pass back); host callers such as the
// de-duplication pass recover by rehashing into a larger table. The table
// reserves one empty slot so that probe loops always terminate, full or not.
var ErrTableFull = errors.New("hashtable: table full")

// InvalidValue is returned by Query for absent keys. Values equal to
// InvalidValue must not be inserted.
const InvalidValue = invalidVal

// Table is a fixed-capacity concurrent hash table from non-zero uint64 keys
// to uint32 values. The zero key is reserved as the empty marker; AIG
// structural keys are never zero for real AND nodes (an AND of two
// constant-false literals is simplified away before hashing).
//
// All methods except Rehash are safe for concurrent use.
type Table struct {
	keys []uint64
	vals []uint32
	mask uint64
	n    int64 // occupied slots
}

// New creates a table able to hold at least capacityHint entries at a load
// factor of at most 1/2.
func New(capacityHint int) *Table {
	if capacityHint < 4 {
		capacityHint = 4
	}
	size := 1
	for size < 2*capacityHint {
		size <<= 1
	}
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
// unpooled passes behave identically (undersized test tables included).
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
	atomic.StoreInt64(&t.n, 0)
}

// Len returns the number of entries.
func (t *Table) Len() int { return int(atomic.LoadInt64(&t.n)) }

// Cap returns the number of slots.
func (t *Table) Cap() int { return len(t.keys) }

// InsertUnique inserts (key, val) if key is absent and returns the value now
// associated with key together with whether this call inserted it. This is
// the paper's shareable-node discovery primitive: create a candidate node
// id, InsertUnique(key, id); if the returned value differs from id, an
// equivalent node already exists and the candidate should be discarded.
//
// When the table cannot accommodate a new key it returns ErrTableFull
// instead of inserting (looking up a key that is already present still
// succeeds on a full table). Occupancy is reserved atomically before the
// slot CAS, so concurrent inserts can never fill the final slot: at least
// one empty slot remains and every probe loop terminates.
func (t *Table) InsertUnique(key uint64, val uint32) (uint32, bool, error) {
	if key == emptyKey {
		panic("hashtable: zero key is reserved")
	}
	if val == invalidVal {
		panic("hashtable: invalid value")
	}
	i := aig.HashKey(key) & t.mask
	for probes := 0; probes <= len(t.keys); probes++ {
		k := atomic.LoadUint64(&t.keys[i])
		if k == emptyKey {
			// Reserve occupancy before claiming the slot, keeping one slot
			// permanently empty (atomic full-detection).
			if atomic.AddInt64(&t.n, 1) >= int64(len(t.keys)) {
				atomic.AddInt64(&t.n, -1)
				return invalidVal, false, ErrTableFull
			}
			if atomic.CompareAndSwapUint64(&t.keys[i], emptyKey, key) {
				atomic.StoreUint32(&t.vals[i], val)
				return val, true, nil
			}
			atomic.AddInt64(&t.n, -1) // lost the slot race; release the claim
			k = atomic.LoadUint64(&t.keys[i])
		}
		if k == key {
			return t.waitVal(i), false, nil
		}
		i = (i + 1) & t.mask
	}
	return invalidVal, false, ErrTableFull
}

// ShareOrCreate is the sharing-aware node creation step of parallel
// replacement (Section III-E): a kernel thread wanting the AND of f0 and f1 in
// a claims the structure with InsertUnique and either wins — the provisional
// node gets the fanins, created is true — or takes the node that owns it,
// leaving the provisional id unused. Between racing threads the first insert
// wins. A full table panics with ErrTableFull, as kernels do (the gpu layer
// makes it a *gpu.LaunchError, the guarded flow rolls the pass back).
func (t *Table) ShareOrCreate(a *aig.AIG, f0, f1 aig.Lit, provisional int32) (lit aig.Lit, created bool) {
	got, inserted, err := t.InsertUnique(aig.Key(f0, f1), uint32(provisional))
	if err != nil {
		panic(err)
	}
	if inserted {
		a.SetFanins(provisional, f0, f1)
	}
	return aig.MakeLit(int32(got), false), inserted
}

// InsertMin inserts (key, val) if key is absent; when key is present it
// lowers the stored value to min(stored, val). Unlike InsertUnique's
// first-caller-wins race, the winning value is determined by the values
// alone, so a batch of concurrent InsertMin calls leaves the table in a
// state independent of scheduling (the minimum value offered for a key
// wins, matching a sequential first-encounter replay of the same batch in
// value order). No engine calls it: the de-duplication pass gets the same
// independence from InsertUnique plus a rank min per class. Returns
// ErrTableFull exactly as InsertUnique does.
func (t *Table) InsertMin(key uint64, val uint32) error {
	if key == emptyKey {
		panic("hashtable: zero key is reserved")
	}
	if val == invalidVal {
		panic("hashtable: invalid value")
	}
	i := aig.HashKey(key) & t.mask
	for probes := 0; probes <= len(t.keys); probes++ {
		k := atomic.LoadUint64(&t.keys[i])
		if k == emptyKey {
			if atomic.AddInt64(&t.n, 1) >= int64(len(t.keys)) {
				atomic.AddInt64(&t.n, -1)
				return ErrTableFull
			}
			if atomic.CompareAndSwapUint64(&t.keys[i], emptyKey, key) {
				atomic.StoreUint32(&t.vals[i], val)
				return nil
			}
			atomic.AddInt64(&t.n, -1) // lost the slot race; release the claim
			k = atomic.LoadUint64(&t.keys[i])
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
				if cur <= val {
					return nil
				}
				if atomic.CompareAndSwapUint32(&t.vals[i], cur, val) {
					return nil
				}
			}
		}
		i = (i + 1) & t.mask
	}
	return ErrTableFull
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
	for probes := 0; probes <= len(t.keys); probes++ {
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

// KV is one key-value pair.
type KV struct {
	Key uint64
	Val uint32
}

// Dump gathers all entries into a densely packed slice using device stream
// compaction (Section III-E: "dumping all the key-value pairs concurrently
// to a consecutively stored array"). Pass a device to account the cost; a
// nil device performs a plain host-side sweep.
func (t *Table) Dump(d *gpu.Device) []KV {
	if d == nil {
		// Atomic loads: Dump may run concurrently with InsertUnique (the
		// documented contract), and a slot's value is published after its
		// key CAS — waitVal closes that window.
		out := make([]KV, 0, t.Len())
		for i := range t.keys {
			if k := atomic.LoadUint64(&t.keys[i]); k != emptyKey {
				out = append(out, KV{k, t.waitVal(uint64(i))})
			}
		}
		return out
	}
	keep := make([]bool, len(t.keys))
	src := make([]KV, len(t.keys))
	d.Launch1("hashtable/dump-flags", len(t.keys), func(i int) {
		if k := atomic.LoadUint64(&t.keys[i]); k != emptyKey {
			keep[i] = true
			src[i] = KV{k, t.waitVal(uint64(i))}
		}
	})
	return gpu.Compact(d, "hashtable/dump", src, keep)
}

// Rehash grows the table to hold at least capacityHint entries. Not safe
// for concurrent use; call between kernel launches.
func (t *Table) Rehash(capacityHint int) {
	old := t.Dump(nil)
	if capacityHint < len(old) {
		capacityHint = len(old)
	}
	*t = *New(capacityHint)
	for _, kv := range old {
		t.InsertUnique(kv.Key, kv.Val)
	}
}
