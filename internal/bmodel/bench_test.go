package bmodel

import (
	"fmt"
	"testing"
)

// BenchmarkBModelNext prices one draw at the paper's bias over domains of
// 11, 17 and 23 levels and over the benchmark's 10^7 domain.
func BenchmarkBModelNext(b *testing.B) {
	for _, d := range []int32{1 << 11, 1 << 17, 1 << 23, 10_000_000} {
		b.Run(fmt.Sprintf("domain=%d", d), func(b *testing.B) {
			g := New(0.7, d, 1)
			b.ResetTimer()
			var sink int32
			for i := 0; i < b.N; i++ {
				sink ^= g.Next()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/draw")
			if sink == -1 {
				b.Fatal("impossible draw")
			}
		})
	}
}
