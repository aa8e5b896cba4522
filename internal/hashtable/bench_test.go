package hashtable

import (
	"math/rand"
	"testing"
)

func benchKeys(n int) []uint64 {
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = rng.Uint64() | 1
	}
	return keys
}

func BenchmarkLinearInsertQuery(b *testing.B) {
	keys := benchKeys(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := New(len(keys))
		for j, k := range keys {
			t.InsertUnique(k, uint32(j))
		}
		for _, k := range keys {
			t.Query(k)
		}
	}
}

func BenchmarkChainedInsertQuery(b *testing.B) {
	keys := benchKeys(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := NewChained(2 * len(keys))
		for j, k := range keys {
			t.InsertUnique(k, uint32(j))
		}
		for _, k := range keys {
			t.Query(k)
		}
	}
}

func BenchmarkLinearQueryHit(b *testing.B) {
	keys := benchKeys(1 << 16)
	t := New(len(keys))
	for j, k := range keys {
		t.InsertUnique(k, uint32(j))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Query(keys[i&(len(keys)-1)])
	}
}
