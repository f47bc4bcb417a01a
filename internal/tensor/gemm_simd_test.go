package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// Kernel parity suite for the AVX2 GEMM micro-kernels. The precision
// contract: each C element is one accumulation chain; the vector kernel
// may reassociate it but must stay within 4·ULP of the exact (float64)
// chain, where the ULP scale is the chain's magnitude Σ|a|·|b| (+ the
// beta·C term). INT8 and pure elementwise kernels have no tolerance at
// all — they must be bit-identical across ISAs.

func withISA(t *testing.T, isa KernelISA) func() {
	t.Helper()
	prev, err := SetKernelISA(isa)
	if err != nil {
		t.Skipf("ISA %v unavailable: %v", isa, err)
	}
	return func() { SetKernelISA(prev) }
}

// refGemmBound computes the float64 reference result and a per-element
// error budget: 4·eps32 scaled by the chain magnitude.
func refGemmBound(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int,
	b []float32, ldb int, beta float32, c0 []float32, ldc int) (ref, bound []float64) {
	const eps32 = 1.0 / (1 << 23)
	ref = make([]float64, m*n)
	bound = make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum, mag float64
			for p := 0; p < k; p++ {
				var av, bv float64
				if transA {
					av = float64(a[p*lda+i])
				} else {
					av = float64(a[i*lda+p])
				}
				if transB {
					bv = float64(b[j*ldb+p])
				} else {
					bv = float64(b[p*ldb+j])
				}
				sum += av * bv
				mag += math.Abs(av * bv)
			}
			sum *= float64(alpha)
			mag *= math.Abs(float64(alpha))
			if beta != 0 {
				prev := float64(beta) * float64(c0[i*ldc+j])
				sum += prev
				mag += math.Abs(prev)
			}
			ref[i*n+j] = sum
			// 4 ULP per accumulation chain, plus one rounding of the result
			// itself and an absolute floor for near-cancellation.
			bound[i*n+j] = 4*eps32*mag + eps32*math.Abs(sum) + 1e-30
		}
	}
	return ref, bound
}

// TestGemmAVX2KernelParity exercises the blocked AVX2 path directly
// (bypassing the small-path dispatch) on every edge-tile geometry
// m, n ∈ {1..2·MR, 1..2·NR} for all four transpose variants and both beta
// classes, checking the ≤4·ULP-per-chain contract against the float64
// reference. K values cover sub-quad tails, strip widths, and a multi-K
// cache-block case.
func TestGemmAVX2KernelParity(t *testing.T) {
	restore := withISA(t, ISAAVX2)
	defer restore()
	rng := rand.New(rand.NewSource(41))
	kvals := []int{1, 2, 5, 8, 16, avxKC + 3}
	if testing.Short() {
		kvals = []int{1, 5, 16}
	}
	for _, trans := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		transA, transB := trans[0], trans[1]
		for m := 1; m <= 2*avxMR; m++ {
			for n := 1; n <= 2*avxNR; n += 3 {
				for _, k := range kvals {
					for _, ab := range [][2]float32{{1, 0}, {-1.5, 0.75}} {
						alpha, beta := ab[0], ab[1]
						lda, ldb := k, n
						if transA {
							lda = m
						}
						if transB {
							ldb = k
						}
						a := randomSlice(rng, m*k)
						b := randomSlice(rng, k*n)
						c := randomSlice(rng, m*n)
						ref, bound := refGemmBound(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, n)
						gemmBlocked(true, transA, m, n, k, alpha, a, lda, bSource{transB: transB, b: b, ldb: ldb}, beta, c, n)
						for i := range ref {
							if diff := math.Abs(float64(c[i]) - ref[i]); diff > bound[i] {
								t.Fatalf("tA=%v tB=%v m=%d n=%d k=%d α=%g β=%g: C[%d]=%g ref=%g diff=%g > bound %g",
									transA, transB, m, n, k, alpha, beta, i, c[i], ref[i], diff, bound[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmAVX2ZeroDims pins the degenerate contracts on the AVX2 path:
// zero m/n are no-ops, alpha==0 and k==0 only scale C.
func TestGemmAVX2ZeroDims(t *testing.T) {
	restore := withISA(t, ISAAVX2)
	defer restore()
	a := []float32{1, 2, 3, 4}
	b := []float32{5, 6, 7, 8}
	c := []float32{1, 2, 3, 4}
	Gemm(false, false, 0, 2, 2, 1, a, 2, b, 2, 0, c, 2)
	Gemm(false, false, 2, 0, 2, 1, a, 2, b, 2, 0, c, 2)
	if c[0] != 1 || c[3] != 4 {
		t.Fatalf("zero-dim Gemm touched C: %v", c)
	}
	Gemm(false, false, 2, 2, 0, 1, a, 2, b, 2, 2, c, 2)
	if c[0] != 2 || c[3] != 8 {
		t.Fatalf("k=0 Gemm should scale C by beta: %v", c)
	}
}

// TestGemmWithinISADeterminism: the bit-exact-resume contract pins one ISA
// per run; under a pinned ISA, repeated identical GEMMs must produce
// bit-identical output (no data races, no nondeterministic reduction
// order from the worker pool).
func TestGemmWithinISADeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n, k := 37, 53, avxKC+9
	a := randomSlice(rng, m*k)
	b := randomSlice(rng, k*n)
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	for _, isa := range []KernelISA{ISAScalar, ISAAVX2} {
		restore := withISA(t, isa)
		first := make([]float32, m*n)
		Gemm(false, false, m, n, k, 1.25, a, k, b, n, 0, first, n)
		for trial := 0; trial < 3; trial++ {
			c := make([]float32, m*n)
			Gemm(false, false, m, n, k, 1.25, a, k, b, n, 0, c, n)
			for i := range c {
				if math.Float32bits(c[i]) != math.Float32bits(first[i]) {
					t.Fatalf("ISA %v trial %d: C[%d] = %x, first run %x",
						isa, trial, i, math.Float32bits(c[i]), math.Float32bits(first[i]))
				}
			}
		}
		restore()
	}
}

// TestGemmInt8ISAParity: integer kernels carry no tolerance — the AVX2
// VPMOVSXBD/VPMULLD/VPADDD path must be bit-identical to the scalar quad
// loop, including rows with all-zero weight quads (the skip path) and the
// n%8 tail.
func TestGemmInt8ISAParity(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("AVX2 unavailable")
	}
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct{ m, n, k int }{
		{1, 1, 1}, {3, 7, 5}, {5, 8, 12}, {4, 9, 16}, {16, 33, 64}, {8, 100, 31},
	} {
		a := make([]int8, tc.m*tc.k)
		bm := make([]int8, tc.k*tc.n)
		scales := make([]float32, tc.m)
		for i := range a {
			a[i] = int8(rng.Intn(255) - 127)
		}
		// Force some all-zero quads to exercise the skip path.
		for p := 0; p+3 < tc.k; p += 8 {
			for i := 0; i < tc.m; i++ {
				a[i*tc.k+p], a[i*tc.k+p+1], a[i*tc.k+p+2], a[i*tc.k+p+3] = 0, 0, 0, 0
			}
		}
		for i := range bm {
			bm[i] = int8(rng.Intn(255) - 127)
		}
		for i := range scales {
			scales[i] = float32(rng.NormFloat64())
		}
		bScale := float32(0.031)

		got := make([]float32, tc.m*tc.n)
		want := make([]float32, tc.m*tc.n)
		restore := withISA(t, ISAAVX2)
		GemmInt8(tc.m, tc.n, tc.k, a, scales, bm, bScale, got)
		restore()
		restore = withISA(t, ISAScalar)
		GemmInt8(tc.m, tc.n, tc.k, a, scales, bm, bScale, want)
		restore()
		for i := range got {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
				t.Fatalf("m=%d n=%d k=%d: C[%d] avx2 %x scalar %x",
					tc.m, tc.n, tc.k, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			}
		}
	}
}

// TestElementwiseISAParity: Axpy/Scale/ScaleAllFinite use mul+add vector
// forms — bit-identical to the scalar loops for every length/alignment,
// including non-finite inputs.
func TestElementwiseISAParity(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("AVX2 unavailable")
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 1, 7, 15, 16, 17, 31, 63, 64, 100, 4097} {
		x := randomSlice(rng, n)
		y0 := randomSlice(rng, n)
		if n > 3 {
			x[n/2] = float32(math.Inf(1))
			x[n/3] = float32(math.NaN())
		}

		ya := append([]float32(nil), y0...)
		ys := append([]float32(nil), y0...)
		restore := withISA(t, ISAAVX2)
		Axpy(1.7, x, ya)
		restore()
		restore = withISA(t, ISAScalar)
		Axpy(1.7, x, ys)
		restore()
		for i := range ya {
			if math.Float32bits(ya[i]) != math.Float32bits(ys[i]) {
				t.Fatalf("Axpy n=%d elem %d: avx2 %x scalar %x", n, i,
					math.Float32bits(ya[i]), math.Float32bits(ys[i]))
			}
		}

		xa := append([]float32(nil), x...)
		xs := append([]float32(nil), x...)
		restore = withISA(t, ISAAVX2)
		Scale(-0.3, xa)
		restore()
		restore = withISA(t, ISAScalar)
		Scale(-0.3, xs)
		restore()
		for i := range xa {
			if math.Float32bits(xa[i]) != math.Float32bits(xs[i]) {
				t.Fatalf("Scale n=%d elem %d: avx2 %x scalar %x", n, i,
					math.Float32bits(xa[i]), math.Float32bits(xs[i]))
			}
		}

		fa := append([]float32(nil), x...)
		fs := append([]float32(nil), x...)
		restore = withISA(t, ISAAVX2)
		oka := ScaleAllFinite(0.5, fa)
		restore()
		restore = withISA(t, ISAScalar)
		oks := ScaleAllFinite(0.5, fs)
		restore()
		if oka != oks {
			t.Fatalf("ScaleAllFinite n=%d: verdict avx2 %v scalar %v", n, oka, oks)
		}
		for i := range fa {
			if math.Float32bits(fa[i]) != math.Float32bits(fs[i]) {
				t.Fatalf("ScaleAllFinite n=%d elem %d: avx2 %x scalar %x", n, i,
					math.Float32bits(fa[i]), math.Float32bits(fs[i]))
			}
		}
	}
}

// TestTransposeISAParity: pure data movement must be exactly the identity
// permutation under both ISAs, for edge sizes around the 8×8 tile.
func TestTransposeISAParity(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range [][2]int{{1, 1}, {3, 5}, {8, 8}, {7, 9}, {8, 17}, {16, 16}, {23, 41}, {64, 33}} {
		rows, cols := tc[0], tc[1]
		src := randomSlice(rng, rows*cols)
		dst := make([]float32, rows*cols)
		TransposeF32(src, rows, cols, dst)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Float32bits(dst[j*rows+i]) != math.Float32bits(src[i*cols+j]) {
					t.Fatalf("%dx%d: dst[%d,%d] != src[%d,%d]", rows, cols, j, i, i, j)
				}
			}
		}
	}
}

// TestDotISAParity: the vector Dot keeps float64 accumulation, so the two
// ISAs agree to float64 rounding of the same exact products — a 1-ulp-ish
// relative tolerance, far tighter than any float32 epsilon.
func TestDotISAParity(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("AVX2 unavailable")
	}
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{31, 32, 33, 1000, 4096} {
		x := randomSlice(rng, n)
		y := randomSlice(rng, n)
		restore := withISA(t, ISAAVX2)
		got := Dot(x, y)
		gotN := L2Norm(x)
		restore()
		restore = withISA(t, ISAScalar)
		want := Dot(x, y)
		wantN := L2Norm(x)
		restore()
		if math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("Dot n=%d: avx2 %.17g scalar %.17g", n, got, want)
		}
		if math.Abs(gotN-wantN) > 1e-12*(1+wantN) {
			t.Fatalf("L2Norm n=%d: avx2 %.17g scalar %.17g", n, gotN, wantN)
		}
	}
}
