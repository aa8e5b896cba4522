// Package rcache provides the cross-pass resynthesis cache: a memoized
// mapping from refactoring cones to their factored implementations.
//
// Arithmetic circuits are built from repeated bit slices, so the same cone
// functions recur thousands of times — within one pass, across the repeated
// passes of resyn2/rf_resyn, and across concurrent jobs. The key is the
// cone's exact structural encoding (cut.Scratch.ConeKey: the leaf count, the
// root's phase and every AND node's operands in post-order), the value the
// factored core.Program and its operation estimate. A hit costs one walk of
// the cone and skips its truth table altogether. Entries live in
// mutex-protected shards selected by a 64-bit hash of the key; the map
// lookup itself uses the compiler's no-allocation string(buf) form, so hits
// allocate nothing. Keying on the full encoding (not the hash) makes
// collisions impossible: equal keys are the same DAG over the same leaves,
// hence the same function, and the program is a deterministic function of
// that and the leaf count, which is what keeps cached and uncached runs
// bit-identical. Lookup and Store encode a truth table instead, under a first
// byte no structural key uses, into the same maps.
//
// Programs are immutable once built, so the cache never needs invalidation:
// a cached entry is valid for the lifetime of the process, for any AIG, on
// any goroutine. Capacity is bounded per shard; insertion over the bound
// evicts the shard's oldest entry (counted in Stats.Evictions), which affects
// only speed, never results, and depends only on the order of stores, so a
// sequential run's counters repeat.
//
// A nil *Cache is Default, in every method: callers pass what they were
// given. The 4-input NPN classes rewriting needs are not cached here: they
// are a pure function, memoized process-wide by truth.Npn4.
package rcache

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"aigre/internal/core"
	"aigre/internal/truth"
)

// numShards spreads concurrent jobs over independent locks. It scales with
// the host: a fixed 16 was fine for 16 workers sharing one cache, but eight
// partition jobs each launching multi-worker kernels put far more goroutines
// behind the locks than the machine has cores. Four shards per CPU (rounded
// up to a power of two, floored at the old 16) keeps the expected queue per
// lock short at any worker count; determined once at startup so every cache
// in the process agrees.
var numShards = func() int {
	n := 16
	for n < 4*runtime.GOMAXPROCS(0) {
		n <<= 1
	}
	return n
}()

const (
	// DefaultMaxEntries bounds the resident program entries of New. On the
	// benchmark suite (scale 4) a structural key averages 76 bytes and a
	// program 41 ops: measured 574 bytes of live heap per entry, map and
	// FIFO included, so ~19 MB when full. The 18,341 distinct cones that
	// sequential resyn2 passes over the suite visit fit with room to spare,
	// in 10.5 MB.
	DefaultMaxEntries = 32 << 10
)

// Entry is one memoized resynthesis result.
type Entry struct {
	// Prog is the factored implementation of the cone function. Programs
	// are immutable; sharing one across goroutines and AIGs is safe.
	Prog core.Program
	// Ops is the modeled operation count of the synthesis that produced
	// Prog. Hits charge it again: the paper's GPU threads do not share a
	// factoring cache, so the device model must account the full work.
	Ops int64
}

// Stats is a snapshot of the cache effectiveness counters: the one
// cache-counter struct, under the JSON tags its wire and disk forms use (the
// public aigre.CacheStats is this type).
type Stats struct {
	// Hits/Misses/Evictions count program-cache (refactor cone) traffic.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	// Entries is the number of resident program entries at snapshot time.
	Entries int `json:"entries"`
	// NpnHits and NpnMisses are always 0: NPN canonization is truth.Npn4,
	// which keeps no counters. Kept for the frozen benchmark harness, which
	// reads them.
	NpnHits   int64 `json:"-"`
	NpnMisses int64 `json:"-"`
}

// Sub returns the counter deltas s - o (Entries from s, the later snapshot).
// Use it to attribute cache traffic to one run of a shared cache; when other
// goroutines use the cache concurrently, their traffic is included.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Hits:      s.Hits - o.Hits,
		Misses:    s.Misses - o.Misses,
		Evictions: s.Evictions - o.Evictions,
		Entries:   s.Entries,
	}
}

// Lookups returns the total program-cache probes.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate returns Hits/Lookups for the program compartment (0 when idle).
func (s Stats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

type shard struct {
	mu sync.Mutex
	m  map[string]Entry
	// fifo holds the resident keys in insertion order, as a ring starting at
	// next once the shard is full: the next eviction's victim is fifo[next].
	fifo []string
	next int
	// Pad to a cache line: neighboring shards' locks are taken by different
	// workers concurrently, and sharing a line would serialize them anyway.
	_ [16]byte
}

// Cache is a sharded, concurrency-safe resynthesis cache. The zero value is
// not usable; construct with New, NewWithCapacity, or Disabled. All methods
// are safe for concurrent use; a nil receiver is Default.
type Cache struct {
	disabled    bool
	maxPerShard int
	shards      []shard // len is numShards (a power of two); nil when disabled

	hits, misses, evictions atomic.Int64
}

// New returns a cache with the default capacity bound.
func New() *Cache { return NewWithCapacity(DefaultMaxEntries) }

// NewWithCapacity returns a cache holding at most maxEntries program
// entries (0 or negative selects DefaultMaxEntries).
func NewWithCapacity(maxEntries int) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	per := (maxEntries + numShards - 1) / numShards
	if per < 1 {
		per = 1
	}
	c := &Cache{maxPerShard: per, shards: make([]shard, numShards)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]Entry)
	}
	return c
}

// Disabled returns a cache that never stores and never hits: every probe is
// a miss and the cone is factored again. Used for cached-vs-uncached
// ablations; results are identical either way, only the work repeats.
func Disabled() *Cache { return &Cache{disabled: true} }

// Default is the process-wide cache, the one a nil *Cache stands for: direct
// refactor calls, flow.Run with a zero Config, and every job whose
// aigre.Options.Cache is nil share it.
var Default = New()

// orDefault resolves a nil receiver to Default: the one place the default
// cache is chosen.
func (c *Cache) orDefault() *Cache {
	if c == nil {
		return Default
	}
	return c
}

// appendKey serializes the cone function (tt, nLeaves) into dst: the leaf
// count, below any structural key's first byte, then the table words. Tables
// arrive normalized from cut.ConeTruth, so the bits above 2^n for n < 6 are
// part of the deterministic representation.
func appendKey(dst []byte, tt truth.TT, nLeaves int) []byte {
	dst = append(dst, byte(nLeaves))
	for _, w := range tt.Words {
		dst = append(dst,
			byte(w), byte(w>>8), byte(w>>16), byte(w>>24),
			byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56))
	}
	return dst
}

// hashKey is FNV-1a over the key bytes; it selects the shard only (map
// lookup uses the exact key), so quality beyond even spread is irrelevant.
func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// shardFor selects key's shard from the high half of its hash: FNV-1a's low
// nibble depends only on the key bytes' low nibbles, and truth-table bytes are
// 0x00/0xFF/0xAA/0xCC/0xF0-like, so the low bits filled two of sixteen shards.
func (c *Cache) shardFor(key []byte) *shard {
	return &c.shards[hashKey(key)>>32&uint64(len(c.shards)-1)]
}

// LookupKey probes the program compartment for key, a cut.Scratch.ConeKey
// encoding. The hit path performs no allocation.
func (c *Cache) LookupKey(key []byte) (Entry, bool) {
	c = c.orDefault()
	if c.disabled {
		c.misses.Add(1)
		return Entry{}, false
	}
	s := c.shardFor(key)
	s.mu.Lock()
	e, ok := s.m[string(key)] // no-alloc map probe form
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return e, ok
}

// StoreKey records the resynthesis result for key unless it is resident.
// When the shard is full its oldest entry is evicted first.
func (c *Cache) StoreKey(key []byte, e Entry) {
	c = c.orDefault()
	if c.disabled {
		return
	}
	// An entry lives as long as the process: keep the program at its exact
	// size, without the slack its builder's appends left (30 % of it).
	e.Prog.Ops = slices.Clone(e.Prog.Ops)
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.m[string(key)]; ok {
		return // a racing miss stored it; programs are deterministic
	}
	k := string(key)
	if len(s.fifo) < c.maxPerShard {
		s.fifo = append(s.fifo, k)
	} else {
		delete(s.m, s.fifo[s.next])
		c.evictions.Add(1)
		s.fifo[s.next] = k
		s.next = (s.next + 1) % c.maxPerShard
	}
	s.m[k] = e
}

// Lookup probes for the cone function (tt, nLeaves) through LookupKey. The
// engines probe by structure; the benchmark harness's rcache probe uses this.
func (c *Cache) Lookup(tt truth.TT, nLeaves int) (Entry, bool) {
	var buf [1 + 8<<(truth.MaxVars-6)]byte
	return c.LookupKey(appendKey(buf[:0], tt, nLeaves))
}

// Store records the result for the cone function (tt, nLeaves) through
// StoreKey.
func (c *Cache) Store(tt truth.TT, nLeaves int, e Entry) {
	var buf [1 + 8<<(truth.MaxVars-6)]byte
	c.StoreKey(appendKey(buf[:0], tt, nLeaves), e)
}

// Npn4 is truth.Npn4. Kept for the frozen benchmark harness, whose
// rcache.npn4_ns probe calls it.
func (c *Cache) Npn4(tt uint16) (uint16, truth.Npn4Transform) { return truth.Npn4(tt) }

// Entries returns the number of resident program entries.
func (c *Cache) Entries() int {
	c = c.orDefault()
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Snapshot returns the current counter values.
func (c *Cache) Snapshot() Stats {
	c = c.orDefault()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Entries(),
	}
}
