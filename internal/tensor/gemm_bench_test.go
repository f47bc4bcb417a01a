package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func benchGemm(b *testing.B, m, n, k int) {
	a := make([]float32, m*k)
	bb := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%7) - 3
	}
	for i := range bb {
		bb[i] = float32(i%5) - 2
	}
	b.SetBytes(int64(2 * m * n * k))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(false, false, m, n, k, 1, a, k, bb, n, 0, c, n)
	}
	b.ReportMetric(float64(2*m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkGemmConvLike times the conv-shaped product alone, and from 8
// goroutines at once — training ranks or serving replicas sharing the
// panel free list, its contended case.
func BenchmarkGemmConvLike(b *testing.B) {
	const m, n, k = 32, 1024, 288
	b.Run("serial", func(b *testing.B) { benchGemm(b, m, n, k) })
	b.Run("8goroutines", func(b *testing.B) {
		a, bb, _, _, _ := convLikeOperands(m, n, k)
		var done atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := make([]float32, m*n)
				for done.Add(1) <= int64(b.N) {
					Gemm(false, false, m, n, k, 1, a, k, bb, n, 0, c, n)
				}
			}()
		}
		wg.Wait()
		b.ReportMetric(float64(2*m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

func BenchmarkGemmBig(b *testing.B)  { benchGemm(b, 256, 512, 512) }
func BenchmarkGemmTiny(b *testing.B) { benchGemm(b, 8, 256, 72) }

// BenchmarkGemmCrossover times the small (scalar axpy) kernel against the
// blocked AVX2 kernel on the same shape, bypassing dispatch — the data
// behind the gemmSmallMNKAVX2 threshold in isa.go. Run with
// -bench GemmCrossover to re-derive the crossover on new hardware.
func BenchmarkGemmCrossover(b *testing.B) {
	if ActiveISA() != ISAAVX2 {
		b.Skip("AVX2 kernels unavailable or disabled")
	}
	for _, tc := range []struct{ m, n, k int }{
		{12, 16, 16}, {12, 32, 32}, {16, 32, 16}, {16, 64, 16},
		{24, 32, 32}, {16, 64, 32}, {32, 64, 16}, {32, 64, 32},
		{48, 64, 48}, {64, 128, 32},
	} {
		a := make([]float32, tc.m*tc.k)
		bb := make([]float32, tc.k*tc.n)
		c := make([]float32, tc.m*tc.n)
		for i := range a {
			a[i] = float32(i%7) - 3
		}
		for i := range bb {
			bb[i] = float32(i%5) - 2
		}
		flops := float64(2 * tc.m * tc.n * tc.k)
		name := fmt.Sprintf("m%dn%dk%d_mnk%d", tc.m, tc.n, tc.k, tc.m*tc.n*tc.k)
		b.Run(name+"/small", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmSmall(false, false, tc.m, tc.n, tc.k, 1, a, tc.k, bb, tc.n, 0, c, tc.n)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
		b.Run(name+"/blocked", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gemmBlocked(true, false, false, tc.m, tc.n, tc.k, 1, a, tc.k, bb, tc.n, 0, c, tc.n)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
