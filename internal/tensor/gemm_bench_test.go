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

// BenchmarkConvTile times one serving-tile convolution — a 16×16 tile,
// 3×3 kernel, pad 1, 16 → 8 channels, the m8 n256 k144 product of the
// benchmark's tensor.gemm_tile probe — materialized (Im2col, then Gemm)
// and with ConvGemm packing its B panel straight from the tile.
func BenchmarkConvTile(b *testing.B) {
	const cin, cout = 16, 8
	g := ConvGeom{InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, DilH: 1, DilW: 1}
	cols, k := g.OutH()*g.OutW(), cin*g.KH*g.KW
	x := make([]float32, cin*g.InH*g.InW)
	w := make([]float32, cout*k)
	for i := range x {
		x[i] = float32(i%5) - 2
	}
	for i := range w {
		w[i] = float32(i%7) - 3
	}
	out := make([]float32, cout*cols)
	flops := float64(2 * cout * cols * k)
	b.Run("im2col+gemm", func(b *testing.B) {
		col := make([]float32, k*cols)
		for b.Loop() {
			Im2col(x, cin, g, col)
			Gemm(false, false, cout, cols, k, 1, w, k, col, cols, 0, out, cols)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
	b.Run("packed", func(b *testing.B) {
		wsp := NewWorkspace(NewPool())
		for b.Loop() {
			ConvGemm(w, cout, x, cin, g, out, wsp)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
}

// BenchmarkConvWeightGrad times one image's convolution weight gradient
// at the growth-rate shape of the training benchmark's Tiramisu — a 32×32
// image, 3×3 kernel, pad 1, 16 → 4 channels, the m4 n144 k1024 product —
// materialized (Im2col, then the transposed Gemm) and with
// ConvGemmWeightGrad packing its B panel straight from the image.
func BenchmarkConvWeightGrad(b *testing.B) {
	const cin, cout = 16, 4
	g := ConvGeom{InH: 32, InW: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1,
		PadH: 1, PadW: 1, DilH: 1, DilW: 1}
	cols, k := g.OutH()*g.OutW(), cin*g.KH*g.KW
	x := make([]float32, cin*g.InH*g.InW)
	gOut := make([]float32, cout*cols)
	for i := range x {
		x[i] = float32(i%5) - 2
	}
	for i := range gOut {
		gOut[i] = float32(i%7) - 3
	}
	gw := make([]float32, cout*k)
	flops := float64(2 * cout * cols * k)
	b.Run("im2col+gemm", func(b *testing.B) {
		col := make([]float32, k*cols)
		for b.Loop() {
			Im2col(x, cin, g, col)
			Gemm(false, true, cout, k, cols, 1, gOut, cols, col, cols, 1, gw, k)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	})
	b.Run("packed", func(b *testing.B) {
		wsp := NewWorkspace(NewPool())
		for b.Loop() {
			ConvGemmWeightGrad(gOut, cout, x, cin, g, gw, wsp)
		}
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
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
				gemmBlocked(true, false, tc.m, tc.n, tc.k, 1, a, tc.k, bSource{b: bb, ldb: tc.n}, 0, c, tc.n)
			}
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
