package gpu

import "testing"

// BenchmarkLaunchOverhead measures the host-side cost of Launch bookkeeping
// over a trivially small kernel, so the accounting dominates.
func BenchmarkLaunchOverhead(b *testing.B) {
	d := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Launch("bench/kernel", 16, func(tid int) int64 { return 1 })
	}
}
