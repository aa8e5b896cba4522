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

// BenchmarkLaunchThreads measures the host cost per logical thread of a
// one-op kernel on one worker: the launch loop and its panic containment,
// not the kernel.
func BenchmarkLaunchThreads(b *testing.B) {
	const n = 1 << 16
	d := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Launch("bench/threads", n, func(tid int) int64 { return 1 })
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/thread")
}
