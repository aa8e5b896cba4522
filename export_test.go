package aigre

import "aigre/internal/rcache"

// NewCacheWithCapacity returns an empty cache holding at most maxEntries
// programs, small enough for a test to force evictions.
func NewCacheWithCapacity(maxEntries int) *Cache {
	return &Cache{c: rcache.NewWithCapacity(maxEntries)}
}
