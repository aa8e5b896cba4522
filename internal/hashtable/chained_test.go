package hashtable

import (
	"errors"
	"sync/atomic"
)

// errChainedFull is returned by ChainedTable.InsertUnique when its entry pool
// is exhausted.
var errChainedFull = errors.New("hashtable: chained entry pool exhausted")

// ChainedTable is a lock-free chained hash table in the style of the
// primitive hashing used by the earlier GPU rewriting work [9]. It is test
// code: the baseline of the one hash-table ablation,
// BenchmarkChainedInsertQuery against BenchmarkLinearInsertQuery (the paper
// argues linear probing benefits more from memory locality).
type ChainedTable struct {
	heads []int32 // bucket -> first entry index, -1 when empty
	next  []int32 // entry -> next entry index
	keys  []uint64
	vals  []uint32
	n     int64 // allocated entries
	mask  uint64
}

// NewChained creates a chained table able to hold capacity entries.
func NewChained(capacity int) *ChainedTable {
	if capacity < 4 {
		capacity = 4
	}
	buckets := 1
	for buckets < capacity {
		buckets <<= 1
	}
	t := &ChainedTable{
		heads: make([]int32, buckets),
		next:  make([]int32, capacity),
		keys:  make([]uint64, capacity),
		vals:  make([]uint32, capacity),
		mask:  uint64(buckets - 1),
	}
	for i := range t.heads {
		t.heads[i] = -1
	}
	return t
}

// InsertUnique inserts (key, val) if absent; semantics match
// Table.InsertUnique, except that an exhausted entry pool returns
// errChainedFull.
func (t *ChainedTable) InsertUnique(key uint64, val uint32) (uint32, bool, error) {
	if key == 0 {
		panic("hashtable: zero key is reserved")
	}
	b := hashBucket(key, t.mask)
	// First scan the existing chain.
	for e := atomic.LoadInt32(&t.heads[b]); e >= 0; e = atomic.LoadInt32(&t.next[e]) {
		if atomic.LoadUint64(&t.keys[e]) == key {
			return atomic.LoadUint32(&t.vals[e]), false, nil
		}
	}
	// Allocate an entry and publish it at the head; on CAS failure rescan
	// the newly prepended entries.
	e := atomic.AddInt64(&t.n, 1) - 1
	if int(e) >= len(t.keys) {
		atomic.AddInt64(&t.n, -1)
		return InvalidValue, false, errChainedFull
	}
	atomic.StoreUint64(&t.keys[e], key)
	atomic.StoreUint32(&t.vals[e], val)
	for {
		head := atomic.LoadInt32(&t.heads[b])
		atomic.StoreInt32(&t.next[e], head)
		if atomic.CompareAndSwapInt32(&t.heads[b], head, int32(e)) {
			return val, true, nil
		}
		// Another thread inserted concurrently; check whether it was our key.
		for f := atomic.LoadInt32(&t.heads[b]); f >= 0 && f != head; f = atomic.LoadInt32(&t.next[f]) {
			if atomic.LoadUint64(&t.keys[f]) == key {
				return atomic.LoadUint32(&t.vals[f]), false, nil
			}
		}
	}
}

// Query returns the value for key, or (InvalidValue, false) when absent.
func (t *ChainedTable) Query(key uint64) (uint32, bool) {
	b := hashBucket(key, t.mask)
	for e := atomic.LoadInt32(&t.heads[b]); e >= 0; e = atomic.LoadInt32(&t.next[e]) {
		if atomic.LoadUint64(&t.keys[e]) == key {
			return atomic.LoadUint32(&t.vals[e]), true
		}
	}
	return InvalidValue, false
}

func hashBucket(key uint64, mask uint64) uint64 {
	k := key
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	return k & mask
}
