//go:build !amd64

package tensor

// Portable stubs: every dispatch wrapper declines, so all kernels run the
// scalar paths. KernelISA on these platforms only ever resolves
// to ISAScalar (simd.HasAVX2 is false off amd64).

func simdGemmTile(kc int, ap, bp []float32, alpha, beta float32, mode int, c []float32, ldc int) {
	panic("tensor: simdGemmTile called without AVX2 support")
}

func simdGemmTileAcc(kc int, ap, bp []float32, acc *[avxMR * avxNR]float32) {
	panic("tensor: simdGemmTileAcc called without AVX2 support")
}

func simdInt8AxpyQuad(av *[4]int32, b0, b1, b2, b3 []int8, acc []int32) int { return 0 }

func simdAxpy(alpha float32, x, y []float32) bool { return false }

func simdScale(alpha float32, x []float32) bool { return false }

func simdScaleAllFinite(alpha float32, x []float32) (ok, handled bool) { return false, false }

func simdDot(x, y []float32) (float64, bool) { return 0, false }

func simdTranspose(src []float32, rows, cols int, dst []float32) bool { return false }

func simdGatherT8x8(src []float32, offs *[8]int, dst []float32, dstStride int) {
	panic("tensor: simdGatherT8x8 called without AVX2 support")
}

func fmaPeakProbeRun(iters int) bool { return false }
