// BenchmarkPublicAPIResyn2 times the exported entry point end to end. The
// paper's tables and figures are not benchmarks: TestPaperClaims
// (paper_test.go) regenerates and asserts them, and performance claims are
// measured with benchmark/ (BENCHMARK.json).
package aigre_test

import (
	"context"
	"testing"

	"aigre"
	"aigre/internal/bench"
)

// BenchmarkPublicAPIResyn2 exercises the exported entry point end to end on
// the suite's mid-weight circuit (a 32-bit multiplier).
func BenchmarkPublicAPIResyn2(b *testing.B) {
	a, ok := bench.ByName("multiplier", 1)
	if !ok {
		b.Fatal("missing benchmark circuit")
	}
	n := aigre.FromInternal(a)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Resyn2(context.Background(), aigre.Options{Parallel: true}); err != nil {
			b.Fatal(err)
		}
	}
}
