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

// Bytes returns the bytes allocated by one call of f: the minimum over three
// calls, run under GOMAXPROCS(1) as testing.AllocsPerRun runs its function,
// so that a goroutine of another test or of the runtime allocating meanwhile
// cannot charge its bytes to f. f must be safe to call three times.
func Bytes(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := ^uint64(0)
	for range 3 {
		start := Total()
		f()
		best = min(best, Total()-start)
	}
	return best
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
