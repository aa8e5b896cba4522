package rcache

// ShardSizes returns the number of resident program entries per shard.
func (c *Cache) ShardSizes() []int {
	sizes := make([]int, len(c.shards))
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		sizes[i] = len(s.m)
		s.mu.Unlock()
	}
	return sizes
}
