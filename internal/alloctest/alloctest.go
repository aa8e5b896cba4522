// Package alloctest measures the bytes a piece of code allocates, for the
// byte budgets of tests and the B/node metric of layer benchmarks. Only
// tests import it.
package alloctest

import (
	"runtime"
	"testing"
)

// Total returns the cumulative bytes allocated by the process so far; the
// difference of two readings is what the code between them allocated
// (on all goroutines).
func Total() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

// Bytes returns the bytes allocated by one call of f.
func Bytes(f func()) uint64 {
	start := Total()
	f()
	return Total() - start
}

// SkipIfRace skips a byte-budget test in a -race build.
func SkipIfRace(t testing.TB) {
	if RaceEnabled {
		t.Skip("byte budgets are meaningless under -race")
	}
}

// ReportPerNode reports, as the benchmark's "B/node" metric, the bytes
// allocated since the reading start, per iteration and per node.
func ReportPerNode(b *testing.B, start uint64, nodes int) {
	b.ReportMetric(float64(Total()-start)/float64(b.N)/float64(nodes), "B/node")
}
