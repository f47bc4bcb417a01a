package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// naiveGemm is the triple-loop reference the blocked kernel is verified
// against: unambiguous, unblocked, no packing.
func naiveGemm(transA, transB bool, m, n, k int, alpha float32, a []float32, lda int,
	b []float32, ldb int, beta float32, c []float32, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var sum float64
			for p := 0; p < k; p++ {
				var av, bv float32
				if transA {
					av = a[p*lda+i]
				} else {
					av = a[i*lda+p]
				}
				if transB {
					bv = b[j*ldb+p]
				} else {
					bv = b[p*ldb+j]
				}
				sum += float64(av) * float64(bv)
			}
			prev := float64(0)
			if beta != 0 {
				prev = float64(beta) * float64(c[i*ldc+j])
			}
			c[i*ldc+j] = float32(prev + float64(alpha)*sum)
		}
	}
}

func randomSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

// TestGemmMatchesNaiveReference is the property test of the blocked GEMM:
// random m/n/k (including 0-dim edges), all four transpose combinations,
// and a spread of alpha/beta values, compared elementwise against the
// triple-loop reference. Sizes cover one- and many-tile shapes under the
// active kernel.
func TestGemmMatchesNaiveReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dims := func() int {
		switch rng.Intn(5) {
		case 0:
			return 0 // zero-dim edge
		case 1:
			return 1 + rng.Intn(4)
		default:
			return 1 + rng.Intn(40)
		}
	}
	alphas := []float32{0, 1, 0.5, -2}
	betas := []float32{0, 1, 0.75, -1}

	for iter := 0; iter < 300; iter++ {
		m, n, k := dims(), dims(), dims()
		transA, transB := rng.Intn(2) == 1, rng.Intn(2) == 1
		alpha := alphas[rng.Intn(len(alphas))]
		beta := betas[rng.Intn(len(betas))]

		// Leading dims with optional slack beyond the minimum.
		acols, arows := k, m
		if transA {
			acols, arows = m, k
		}
		bcols, brows := n, k
		if transB {
			bcols, brows = k, n
		}
		lda := acols + rng.Intn(3)
		ldb := bcols + rng.Intn(3)
		ldc := n + rng.Intn(3)
		if lda == 0 {
			lda = 1
		}
		if ldb == 0 {
			ldb = 1
		}
		if ldc == 0 {
			ldc = 1
		}

		a := randomSlice(rng, maxInt(arows*lda, 1))
		b := randomSlice(rng, maxInt(brows*ldb, 1))
		c := randomSlice(rng, maxInt(m*ldc, 1))
		want := append([]float32(nil), c...)

		naiveGemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
		Gemm(transA, transB, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)

		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				got, ref := float64(c[i*ldc+j]), float64(want[i*ldc+j])
				if math.Abs(got-ref) > 1e-3*(1+math.Abs(ref)) {
					t.Fatalf("iter %d (tA=%v tB=%v m=%d n=%d k=%d α=%g β=%g): C[%d,%d] = %g, want %g",
						iter, transA, transB, m, n, k, alpha, beta, i, j, got, ref)
				}
			}
		}
	}
}

// TestGemmBlockedLargePanels drives the packed path across multiple K and N
// cache blocks (k > gemmKC forces multi-block beta handling).
func TestGemmBlockedLargePanels(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ m, n, k int }{
		{gemmMR*3 + 1, gemmNR*5 + 3, gemmKC + 37},
		{gemmMC + 5, gemmNR + 1, gemmKC*2 + 1},
		{3, 2*gemmNR + 5, gemmKC + 1},
	} {
		for _, trans := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
			transA, transB := trans[0], trans[1]
			lda, ldb := tc.k, tc.n
			if transA {
				lda = tc.m
			}
			if transB {
				ldb = tc.k
			}
			a := randomSlice(rng, tc.m*tc.k)
			b := randomSlice(rng, tc.k*tc.n)
			c := randomSlice(rng, tc.m*tc.n)
			want := append([]float32(nil), c...)
			naiveGemm(transA, transB, tc.m, tc.n, tc.k, 1.5, a, lda, b, ldb, 0.5, want, tc.n)
			Gemm(transA, transB, tc.m, tc.n, tc.k, 1.5, a, lda, b, ldb, 0.5, c, tc.n)
			for i := range c {
				diff := math.Abs(float64(c[i] - want[i]))
				if diff > 1e-2*(1+math.Abs(float64(want[i]))) {
					t.Fatalf("m=%d n=%d k=%d tA=%v tB=%v: elem %d = %g, want %g",
						tc.m, tc.n, tc.k, transA, transB, i, c[i], want[i])
				}
			}
		}
	}
}

// TestGemmBetaZeroIgnoresGarbage verifies the beta==0 contract the pooled
// executor depends on: C's prior contents (even NaN) are never read.
func TestGemmBetaZeroIgnoresGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, size := range []struct{ m, n, k int }{{3, 4, 5}, {40, 48, 64}} {
		a := randomSlice(rng, size.m*size.k)
		b := randomSlice(rng, size.k*size.n)
		c := make([]float32, size.m*size.n)
		for i := range c {
			c[i] = float32(math.NaN())
		}
		Gemm(false, false, size.m, size.n, size.k, 1, a, size.k, b, size.n, 0, c, size.n)
		for i, v := range c {
			if math.IsNaN(float64(v)) {
				t.Fatalf("m=%d n=%d k=%d: NaN leaked into C[%d] under beta=0",
					size.m, size.n, size.k, i)
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestGemmPropagatesNonFinite: a zero times an infinity is NaN, and no
// route may skip the product because one factor is zero — FP16 overflow
// detection (ScaleAllFinite) relies on non-finite values propagating. A
// zero A against a B holding one Inf must give NaN in that column and +0
// elsewhere, for tiny shapes (m2n2k2, a single row), mid-size and
// many-tile ones, under every transpose and both ISAs. ConvGemm with a zero filter over an
// image holding one Inf pixel must give NaN at every output whose window
// covers the pixel.
func TestGemmPropagatesNonFinite(t *testing.T) {
	inf := float32(math.Inf(1))
	wsp := NewWorkspace(NewPool())
	forEachISA(t, func(t *testing.T) {
		for _, sh := range []struct{ m, n, k int }{
			{2, 2, 2}, {4, 8, 8}, {1, 64, 16}, {8, 64, 64}, {32, 32, 32}, {64, 64, 128},
		} {
			m, n, k := sh.m, sh.n, sh.k
			p0, j0 := k/2, n-1
			for v := 0; v < 4; v++ {
				transA, transB := v&1 != 0, v&2 != 0
				lda, ldb := k, n
				if transA {
					lda = m
				}
				b := make([]float32, k*n)
				for i := range b {
					b[i] = 1
				}
				if transB {
					ldb = k
					b[j0*ldb+p0] = inf
				} else {
					b[p0*ldb+j0] = inf
				}
				c := make([]float32, m*n)
				Gemm(transA, transB, m, n, k, 1, make([]float32, m*k), lda, b, ldb, 0, c, n)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						if got := c[i*n+j]; (j == j0) != math.IsNaN(float64(got)) || j != j0 && got != 0 {
							t.Fatalf("m%dn%dk%d tA=%v tB=%v: C[%d,%d] = %v; want NaN in column %d, 0 elsewhere",
								m, n, k, transA, transB, i, j, got, j0)
						}
					}
				}
			}
		}
		for _, tc := range []struct {
			g         ConvGeom
			cin, cout int
		}{
			{ConvGeom{InH: 3, InW: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, 1, 1},
			{ConvGeom{InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, 3, 4},
			{ConvGeom{InH: 9, InW: 9, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, 2, 3},
		} {
			g, cols, k := tc.g, tc.g.OutH()*tc.g.OutW(), tc.cin*tc.g.KH*tc.g.KW
			x := make([]float32, tc.cin*g.InH*g.InW)
			for i := range x {
				x[i] = 1
			}
			x[len(x)/2] = inf
			col := make([]float32, k*cols)
			Im2col(x, tc.cin, g, col)
			out := make([]float32, tc.cout*cols)
			ConvGemm(make([]float32, tc.cout*k), tc.cout, x, tc.cin, g, out, wsp)
			for j := 0; j < cols; j++ {
				covered := false
				for p := 0; p < k; p++ {
					covered = covered || math.IsInf(float64(col[p*cols+j]), 0)
				}
				for i := 0; i < tc.cout; i++ {
					if got := out[i*cols+j]; covered != math.IsNaN(float64(got)) || !covered && got != 0 {
						t.Fatalf("%s cin=%d cout=%d: out[%d, %d] = %v; window covers the Inf: %v",
							geomName(g), tc.cin, tc.cout, i, j, got, covered)
					}
				}
			}
		}
	})
}
