package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// Kernel parity suite for the AVX2 kernels. The precision contract has no
// tolerance: every kernel — GEMM, dot and L2Norm included — must give the
// same bits under the scalar and the AVX2 ISA.

func withISA(t *testing.T, isa KernelISA) func() {
	t.Helper()
	prev, err := SetKernelISA(isa)
	if err != nil {
		t.Skipf("ISA %v unavailable: %v", isa, err)
	}
	return func() { SetKernelISA(prev) }
}

// sameBitsAcrossISAs fails t unless the scalar and AVX2 results agree bit
// for bit.
func sameBitsAcrossISAs(t *testing.T, what string, scalar, avx2 []float32) {
	t.Helper()
	for i := range scalar {
		if math.Float32bits(scalar[i]) != math.Float32bits(avx2[i]) {
			t.Fatalf("%s: [%d] scalar %v (%#x), avx2 %v (%#x)", what, i,
				scalar[i], math.Float32bits(scalar[i]), avx2[i], math.Float32bits(avx2[i]))
		}
	}
}

// gemmUnderISA runs Gemm under isa on a copy of c and returns it.
func gemmUnderISA(t *testing.T, isa KernelISA, transA, transB bool, m, n, k int, alpha float32,
	a []float32, lda int, b []float32, ldb int, beta float32, c []float32) []float32 {
	defer withISA(t, isa)()
	c = append([]float32(nil), c...)
	Gemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, n)
	return c
}

// TestGemmAVX2KernelParity checks that Gemm gives the same bits under the
// scalar 4×8 kernel and the AVX2 6×16 kernel: every edge-tile geometry
// m ∈ 1..2·6, n ∈ 1..2·16+1 (so m mod 4 or 6 and n mod 8 or 16 are
// nonzero), all four transpose variants, and the three epilogue modes —
// β = 0 (mode 1) and β ≠ 0 (mode 2) on the first K block, and with
// k = 259 a second K block that accumulates (mode 0). Three larger shapes
// add M blocks of both kernels' sizes (128 and 144 rows), a second N block
// and three K blocks.
func TestGemmAVX2KernelParity(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("AVX2 unavailable")
	}
	rng := rand.New(rand.NewSource(41))
	kvals := []int{1, 2, 5, 8, 16, avxKC + 3}
	if testing.Short() {
		kvals = []int{1, 5, avxKC + 3}
	}
	type shape struct{ m, n, k int }
	var shapes []shape
	for m := 1; m <= 2*avxMR; m++ {
		for n := 1; n <= 2*avxNR+1; n += 2 {
			for _, k := range kvals {
				shapes = append(shapes, shape{m, n, k})
			}
		}
	}
	shapes = append(shapes, shape{150, 2060, 40}, shape{130, 40, 3*avxKC - 7}, shape{289, 70, 64})
	for _, sh := range shapes {
		m, n, k := sh.m, sh.n, sh.k
		for _, trans := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			transA, transB := trans[0], trans[1]
			for _, ab := range [][2]float32{{1, 0}, {-1.5, 0.75}, {0.5, 1}} {
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
				sameBitsAcrossISAs(t, fmt.Sprintf("tA=%v tB=%v m=%d n=%d k=%d α=%g β=%g", transA, transB, m, n, k, alpha, beta),
					gemmUnderISA(t, ISAScalar, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c),
					gemmUnderISA(t, ISAAVX2, transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c))
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

// TestGemmWithinISADeterminism: under each ISA, repeated identical GEMMs
// at four workers must produce bit-identical output (no data races, no
// nondeterministic reduction order from the worker pool).
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

// TestElementwiseISAParity: axpy/Scale/ScaleAllFinite use mul+add vector
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
		axpy(1.7, x, ya)
		restore()
		restore = withISA(t, ISAScalar)
		axpy(1.7, x, ys)
		restore()
		for i := range ya {
			if math.Float32bits(ya[i]) != math.Float32bits(ys[i]) {
				t.Fatalf("axpy n=%d elem %d: avx2 %x scalar %x", n, i,
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
		transposeF32(src, rows, cols, dst)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if math.Float32bits(dst[j*rows+i]) != math.Float32bits(src[i*cols+j]) {
					t.Fatalf("%dx%d: dst[%d,%d] != src[%d,%d]", rows, cols, j, i, i, j)
				}
			}
		}
	}
}

// TestDotISAParity: dot and L2Norm sum in one order under both ISAs, so
// they agree bit for bit — below the vector path's 32-element floor, at
// it, with every tail length, and long.
func TestDotISAParity(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("AVX2 unavailable")
	}
	rng := rand.New(rand.NewSource(37))
	sizes := []int{1000, 4096}
	for n := 0; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		x := randomSlice(rng, n)
		y := randomSlice(rng, n)
		restore := withISA(t, ISAAVX2)
		got, gotN := dot(x, y), L2Norm(x)
		restore()
		restore = withISA(t, ISAScalar)
		want, wantN := dot(x, y), L2Norm(x)
		restore()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("dot n=%d: avx2 %.17g scalar %.17g", n, got, want)
		}
		if math.Float64bits(gotN) != math.Float64bits(wantN) {
			t.Fatalf("L2Norm n=%d: avx2 %.17g scalar %.17g", n, gotN, wantN)
		}
	}
}
