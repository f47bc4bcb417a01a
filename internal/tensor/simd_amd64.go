//go:build amd64

package tensor

import "repro/internal/simd"

// Assembly kernel declarations (gemm_avx2_amd64.s, vec_avx2_amd64.s). All
// take raw pointers so the hot paths never bounds-check or escape; the
// dispatch wrappers below own the length math, tail handling, and the
// "is AVX2 actually on" check, so the portable callers in gemm.go and
// elementwise.go stay free of build tags.

//go:noescape
func gemmKern6x16(kc int, ap, bp *float32, alpha, beta float32, mode int, c *float32, ldc int)

//go:noescape
func gemmAcc6x16(kc int, ap, bp, acc *float32)

//go:noescape
func int8AxpyQuad(n int, av *int32, b0, b1, b2, b3 *int8, acc *int32)

//go:noescape
func fmaPeakProbe(iters int)

//go:noescape
func axpyAVX2(alpha float32, x, y *float32, n int)

//go:noescape
func scaleAVX2(alpha float32, x *float32, n int)

//go:noescape
func scaleAllFiniteAVX2(alpha float32, x *float32, n int) int32

//go:noescape
func dotAVX2(x, y *float32, n int) float64

//go:noescape
func gatherT8x8AVX2(src *float32, offs *int, dst *float32, dstStride int)

// simdGemmTile runs the full 6×16 tile with the epilogue in assembly.
// mode: 0 accumulate, 1 overwrite, 2 blend (see gemmBlocked).
func simdGemmTile(kc int, ap, bp []float32, alpha, beta float32, mode int, c []float32, ldc int) {
	gemmKern6x16(kc, &ap[0], &bp[0], alpha, beta, mode, &c[0], ldc)
}

// simdGemmTileAcc runs the K loop only, leaving the raw 6×16 accumulator
// for the masked Go epilogue on edge tiles.
func simdGemmTileAcc(kc int, ap, bp []float32, acc *[avxMR * avxNR]float32) {
	gemmAcc6x16(kc, &ap[0], &bp[0], &acc[0])
}

// simdInt8AxpyQuad accumulates acc[j] += Σ av[q]*bq[j] over four int8 rows
// and returns how many leading elements were consumed (a multiple of 8;
// 0 when the vector path is off). Exact int32 arithmetic — bit-identical
// to the scalar loop for any consumed prefix.
func simdInt8AxpyQuad(av *[4]int32, b0, b1, b2, b3 []int8, acc []int32) int {
	n := len(acc) &^ 7
	if n == 0 || !simd.UseAVX2() {
		return 0
	}
	int8AxpyQuad(n, &av[0], &b0[0], &b1[0], &b2[0], &b3[0], &acc[0])
	return n
}

// simdAxpy performs y[i] += alpha*x[i] over the whole slices, returning
// false when the caller should run the scalar loop instead. The vector
// body is mul+add, bit-identical to the scalar loop; the tail runs the
// same scalar arithmetic inline.
func simdAxpy(alpha float32, x, y []float32) bool {
	n := len(x)
	if n < 16 || !simd.UseAVX2() {
		return false
	}
	m := n &^ 7
	axpyAVX2(alpha, &x[0], &y[0], m)
	for i := m; i < n; i++ {
		y[i] += alpha * x[i]
	}
	return true
}

// simdScale performs x[i] *= alpha, with the same contract as simdAxpy.
func simdScale(alpha float32, x []float32) bool {
	n := len(x)
	if n < 16 || !simd.UseAVX2() {
		return false
	}
	m := n &^ 7
	scaleAVX2(alpha, &x[0], m)
	for i := m; i < n; i++ {
		x[i] *= alpha
	}
	return true
}

// simdScaleAllFinite fuses x[i] *= alpha with a non-finite check.
// handled=false means the caller must run the scalar path.
func simdScaleAllFinite(alpha float32, x []float32) (ok, handled bool) {
	n := len(x)
	if n < 16 || !simd.UseAVX2() {
		return false, false
	}
	m := n &^ 7
	ok = scaleAllFiniteAVX2(alpha, &x[0], m) == 0
	for i := m; i < n; i++ {
		v := alpha * x[i]
		x[i] = v
		// Same exponent-field test the vector kernel applies.
		if v-v != 0 {
			ok = false
		}
	}
	return ok, true
}

// simdDot returns Σ float64(x[i])·float64(y[i]) in eight f64 lanes, in
// the summation order dot's scalar path repeats bit for bit.
func simdDot(x, y []float32) (float64, bool) {
	n := len(x)
	if n < 32 || !simd.UseAVX2() {
		return 0, false
	}
	m := n &^ 7
	sum := dotAVX2(&x[0], &y[0], m)
	for i := m; i < n; i++ {
		sum += float64(x[i]) * float64(y[i])
	}
	return sum, true
}

// simdTranspose writes dst[j*rows+i] = src[i*cols+j] using 8×8 in-register
// tiles, with scalar edges. Pure data movement: bit-exact by construction.
func simdTranspose(src []float32, rows, cols int, dst []float32) bool {
	if rows < 8 || cols < 8 || !simd.UseAVX2() {
		return false
	}
	var offs [8]int
	for i := range offs {
		offs[i] = i * cols
	}
	r8, c8 := rows&^7, cols&^7
	for i := 0; i < r8; i += 8 {
		for j := 0; j < c8; j += 8 {
			gatherT8x8AVX2(&src[i*cols+j], &offs[0], &dst[j*rows+i], rows)
		}
		for j := c8; j < cols; j++ {
			for ii := i; ii < i+8; ii++ {
				dst[j*rows+ii] = src[ii*cols+j]
			}
		}
	}
	for i := r8; i < rows; i++ {
		for j := 0; j < cols; j++ {
			dst[j*rows+i] = src[i*cols+j]
		}
	}
	return true
}

// simdGatherT8x8 writes dst[j*dstStride+i] = src[offs[i]+j] for i, j < 8:
// eight 8-float rows of src at arbitrary offsets, transposed in registers.
// Pure data movement, bit-exact by construction. The caller checks that
// the vector path is on (simd.UseAVX2) and that every element read and
// written is in range; only the first of each is bounds-checked here.
func simdGatherT8x8(src []float32, offs *[8]int, dst []float32, dstStride int) {
	gatherT8x8AVX2(&src[0], &offs[0], &dst[0], dstStride)
}

// FMAPeakGFLOPS estimates the core's single-thread FMA peak by timing a
// register-only probe (12 independent 8-lane FMA chains). Returns 0 when
// the AVX2 kernels are unavailable. Bench reports divide measured GEMM
// GFLOP/s by this to report a %-of-peak figure.
func fmaPeakProbeRun(iters int) bool {
	if !simd.HasAVX2() {
		return false
	}
	fmaPeakProbe(iters)
	return true
}
