package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShapeBasics(t *testing.T) {
	s := NCHW(2, 16, 768, 1152)
	if got := s.NumElements(); got != 2*16*768*1152 {
		t.Fatalf("NumElements = %d", got)
	}
	if s.Rank() != 4 {
		t.Fatalf("Rank = %d", s.Rank())
	}
	if !s.Equal(Shape{2, 16, 768, 1152}) {
		t.Fatal("Equal failed")
	}
	if s.Equal(Shape{2, 16, 768}) {
		t.Fatal("Equal matched different rank")
	}
	if s.String() != "[2 16 768 1152]" {
		t.Fatalf("String = %q", s.String())
	}
	st := s.Strides()
	want := []int{16 * 768 * 1152, 768 * 1152, 1152, 1}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("Strides = %v", st)
		}
	}
	c := s.Clone()
	c[0] = 99
	if s[0] != 2 {
		t.Fatal("Clone aliases original")
	}
	if (Shape{0, 3}).Valid() {
		t.Fatal("zero extent should be invalid")
	}
}

func TestTensorIndexing(t *testing.T) {
	a := New(Shape{2, 3, 4})
	a.Set(7.5, 1, 2, 3)
	if a.At(1, 2, 3) != 7.5 {
		t.Fatal("At/Set roundtrip failed")
	}
	if a.Data()[1*12+2*4+3] != 7.5 {
		t.Fatal("row-major offset wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range index did not panic")
		}
	}()
	a.At(2, 0, 0)
}

func TestTensorCloneReshape(t *testing.T) {
	a := FromSlice(Shape{2, 3}, []float32{1, 2, 3, 4, 5, 6})
	b := a.Clone()
	b.Data()[0] = 99
	if a.Data()[0] != 1 {
		t.Fatal("Clone aliases data")
	}
	r := a.Reshape(Shape{3, 2})
	r.Data()[5] = -1
	if a.Data()[5] != -1 {
		t.Fatal("Reshape must alias data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad reshape did not panic")
		}
	}()
	a.Reshape(Shape{4, 2})
}

func TestInitializers(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if v := Full(Shape{3}, 2.5).Data(); v[0] != 2.5 || v[2] != 2.5 {
		t.Fatal("Full wrong")
	}
	if v := Ones(Shape{2}).Data(); v[1] != 1 {
		t.Fatal("Ones wrong")
	}
	h := HeInit(OIHW(64, 32, 3, 3), rng)
	// He std = sqrt(2/288) ≈ 0.0833; sample std should be within 20%.
	var sum, sumsq float64
	for _, v := range h.Data() {
		sum += float64(v)
		sumsq += float64(v) * float64(v)
	}
	n := float64(h.NumElements())
	std := math.Sqrt(sumsq/n - (sum/n)*(sum/n))
	want := math.Sqrt(2.0 / 288.0)
	if math.Abs(std-want)/want > 0.2 {
		t.Fatalf("HeInit std = %g, want ≈ %g", std, want)
	}
	u := RandUniform(Shape{1000}, -1, 1, rng)
	for _, v := range u.Data() {
		if v < -1 || v >= 1 {
			t.Fatalf("RandUniform out of range: %g", v)
		}
	}
}

// matMul multiplies two rank-2 tensors through the blocked GEMM:
// (m×k)·(k×n) → m×n.
func matMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape()[0], a.Shape()[1], b.Shape()[1]
	c := New(Shape{m, n})
	Gemm(false, false, m, n, k, 1, a.Data(), k, b.Data(), n, 0, c.Data(), n)
	return c
}

// naiveMatMul is the O(n³) reference used to validate the blocked GEMM.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Shape()[0], a.Shape()[1]
	n := b.Shape()[1]
	c := New(Shape{m, n})
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.At(i, p)) * float64(b.At(p, j))
			}
			c.Set(float32(s), i, j)
		}
	}
	return c
}

func tensorsClose(a, b *Tensor, tol float64) bool {
	for i, v := range a.Data() {
		if math.Abs(float64(v)-float64(b.Data()[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 16, 16}, {33, 17, 29}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := RandNormal(Shape{m, k}, 0, 1, rng)
		b := RandNormal(Shape{k, n}, 0, 1, rng)
		got := matMul(a, b)
		want := naiveMatMul(a, b)
		if !tensorsClose(got, want, 1e-4) {
			t.Fatalf("Gemm mismatch at %v", dims)
		}
	}
}

func TestGemmTransposeVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n, k := 5, 7, 6
	a := RandNormal(Shape{m, k}, 0, 1, rng)
	b := RandNormal(Shape{k, n}, 0, 1, rng)
	want := naiveMatMul(a, b)

	// A stored transposed (k×m).
	at := New(Shape{k, m})
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at.Set(a.At(i, p), p, i)
		}
	}
	// B stored transposed (n×k).
	bt := New(Shape{n, k})
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt.Set(b.At(p, j), j, p)
		}
	}

	cases := []struct {
		name       string
		ta, tb     bool
		amat, bmat *Tensor
		lda, ldb   int
	}{
		{"TN", true, false, at, b, m, n},
		{"NT", false, true, a, bt, k, k},
		{"TT", true, true, at, bt, m, k},
	}
	for _, tc := range cases {
		c := New(Shape{m, n})
		Gemm(tc.ta, tc.tb, m, n, k, 1, tc.amat.Data(), tc.lda, tc.bmat.Data(), tc.ldb, 0, c.Data(), n)
		if !tensorsClose(c, want, 1e-4) {
			t.Fatalf("Gemm %s mismatch", tc.name)
		}
	}
}

func TestGemmAlphaBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m, n, k := 4, 4, 4
	a := RandNormal(Shape{m, k}, 0, 1, rng)
	b := RandNormal(Shape{k, n}, 0, 1, rng)
	c := Full(Shape{m, n}, 2)
	Gemm(false, false, m, n, k, 0.5, a.Data(), k, b.Data(), n, 3, c.Data(), n)
	want := naiveMatMul(a, b)
	for i := range c.Data() {
		expect := 0.5*want.Data()[i] + 3*2
		if math.Abs(float64(c.Data()[i]-expect)) > 1e-4 {
			t.Fatalf("alpha/beta mismatch at %d: got %g want %g", i, c.Data()[i], expect)
		}
	}
	// beta=0 must overwrite even NaN-free garbage.
	c2 := Full(Shape{m, n}, 42)
	Gemm(false, false, m, n, k, 1, a.Data(), k, b.Data(), n, 0, c2.Data(), n)
	if !tensorsClose(c2, want, 1e-4) {
		t.Fatal("beta=0 did not overwrite C")
	}
}

func TestConvGeomOutputSizes(t *testing.T) {
	cases := []struct {
		g      ConvGeom
		oh, ow int
	}{
		// 7×7 stride-2 conv on 1152×768 with SAME padding: paper's first layer.
		{ConvGeom{InH: 768, InW: 1152, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3, DilH: 1, DilW: 1}, 384, 576},
		// 3×3 dilated-2 conv keeps size with pad=2.
		{ConvGeom{InH: 96, InW: 144, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilH: 2, DilW: 2}, 96, 144},
		// 3×3 maxpool stride 2.
		{ConvGeom{InH: 384, InW: 576, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, 192, 288},
	}
	for i, tc := range cases {
		if tc.g.OutH() != tc.oh || tc.g.OutW() != tc.ow {
			t.Fatalf("case %d: got %dx%d want %dx%d", i, tc.g.OutH(), tc.g.OutW(), tc.oh, tc.ow)
		}
	}
	if SamePad(3, 1) != 1 || SamePad(5, 1) != 2 || SamePad(3, 12) != 12 || SamePad(7, 1) != 3 {
		t.Fatal("SamePad wrong")
	}
}

func TestIm2colSmall(t *testing.T) {
	// 1 channel, 3×3 input, 2×2 kernel, stride 1, no pad → 2×2 output, 4 cols.
	src := []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}
	g := ConvGeom{InH: 3, InW: 3, KH: 2, KW: 2, StrideH: 1, StrideW: 1, DilH: 1, DilW: 1}
	dst := make([]float32, 4*4)
	Im2col(src, 1, g, dst)
	want := []float32{
		1, 2, 4, 5, // kernel tap (0,0)
		2, 3, 5, 6, // (0,1)
		4, 5, 7, 8, // (1,0)
		5, 6, 8, 9, // (1,1)
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Im2col[%d] = %g want %g\nfull: %v", i, dst[i], want[i], dst)
		}
	}
}

func TestIm2colPaddingZeros(t *testing.T) {
	src := []float32{1, 2, 3, 4} // 2×2
	g := ConvGeom{InH: 2, InW: 2, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}
	cols := g.OutH() * g.OutW()
	if cols != 4 {
		t.Fatalf("cols = %d", cols)
	}
	dst := make([]float32, 9*cols)
	Im2col(src, 1, g, dst)
	// Center tap (kh=1,kw=1) must reproduce the input.
	center := dst[4*cols : 5*cols]
	for i, v := range []float32{1, 2, 3, 4} {
		if center[i] != v {
			t.Fatalf("center tap wrong: %v", center)
		}
	}
	// Top-left tap (kh=0,kw=0) sees padding except at output (1,1).
	tl := dst[0:cols]
	if tl[0] != 0 || tl[1] != 0 || tl[2] != 0 || tl[3] != 1 {
		t.Fatalf("top-left tap wrong: %v", tl)
	}
}

func TestCol2imAdjointProperty(t *testing.T) {
	// <Im2col(x), y> == <x, Col2im(y)> for random x, y — the defining
	// adjoint property that makes conv backward-by-data correct.
	rng := rand.New(rand.NewSource(5))
	geoms := []ConvGeom{
		{InH: 5, InW: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1},
		{InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, DilH: 1, DilW: 1},
		{InH: 9, InW: 9, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilH: 2, DilW: 2},
		{InH: 6, InW: 10, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilH: 1, DilW: 1},
	}
	const C = 3
	for gi, g := range geoms {
		n := C * g.InH * g.InW
		m := C * g.KH * g.KW * g.OutH() * g.OutW()
		x := make([]float32, n)
		y := make([]float32, m)
		for i := range x {
			x[i] = float32(rng.NormFloat64())
		}
		for i := range y {
			y[i] = float32(rng.NormFloat64())
		}
		ix := make([]float32, m)
		Im2col(x, C, g, ix)
		cy := make([]float32, n)
		Col2im(y, C, g, cy)
		lhs := dot(ix, y)
		rhs := dot(x, cy)
		if math.Abs(lhs-rhs) > 1e-3*(1+math.Abs(lhs)) {
			t.Fatalf("geom %d: adjoint violated: %g vs %g", gi, lhs, rhs)
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice(Shape{4}, []float32{1, -2, 3, -4})
	b := FromSlice(Shape{4}, []float32{10, 20, 30, 40})
	if got := Sub(b, a).Data(); got[1] != 22 {
		t.Fatalf("Sub = %v", got)
	}
	y := []float32{1, 1, 1}
	axpy(2, []float32{1, 2, 3}, y)
	if y[2] != 7 {
		t.Fatalf("axpy = %v", y)
	}
	Scale(0.5, y)
	if y[2] != 3.5 {
		t.Fatalf("Scale = %v", y)
	}
	if L2Norm([]float32{3, 4}) != 5 {
		t.Fatal("L2Norm wrong")
	}
	if !AllFinite([]float32{1, 2}) || AllFinite([]float32{float32(math.NaN())}) ||
		AllFinite([]float32{float32(math.Inf(1))}) {
		t.Fatal("AllFinite wrong")
	}
}

func TestParallelismControl(t *testing.T) {
	prev := SetParallelism(4)
	defer SetParallelism(prev)
	if Parallelism() != 4 {
		t.Fatal("SetParallelism did not stick")
	}
	SetParallelism(0)
	if Parallelism() != 1 {
		t.Fatal("SetParallelism floor of 1 not enforced")
	}
	// Kernels must produce identical results at any worker count.
	rng := rand.New(rand.NewSource(6))
	a := RandNormal(Shape{37, 23}, 0, 1, rng)
	b := RandNormal(Shape{23, 31}, 0, 1, rng)
	SetParallelism(1)
	c1 := matMul(a, b)
	SetParallelism(8)
	c8 := matMul(a, b)
	if !tensorsClose(c1, c8, 0) {
		t.Fatal("GEMM result depends on parallelism")
	}
}

func TestGemmPropertyLinearity(t *testing.T) {
	// Property: GEMM is linear in A — (A1+A2)·B == A1·B + A2·B.
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a1 := RandNormal(Shape{m, k}, 0, 1, r)
		a2 := RandNormal(Shape{m, k}, 0, 1, r)
		b := RandNormal(Shape{k, n}, 0, 1, r)
		sum := a1.Clone()
		AddInPlace(sum, a2)
		lhs := matMul(sum, b)
		rhs := matMul(a1, b)
		AddInPlace(rhs, matMul(a2, b))
		return tensorsClose(lhs, rhs, 1e-3)
	}
	cfg := &quick.Config{MaxCount: 25, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestIm2colRoundTripIdentityKernel(t *testing.T) {
	// With a 1×1 kernel, stride 1, no pad, Im2col is the identity and
	// Col2im is its exact inverse.
	rng := rand.New(rand.NewSource(8))
	g := ConvGeom{InH: 4, InW: 6, KH: 1, KW: 1, StrideH: 1, StrideW: 1, DilH: 1, DilW: 1}
	const C = 2
	x := make([]float32, C*24)
	for i := range x {
		x[i] = float32(rng.NormFloat64())
	}
	mid := make([]float32, len(x))
	Im2col(x, C, g, mid)
	back := make([]float32, len(x))
	Col2im(mid, C, g, back)
	for i := range x {
		if x[i] != mid[i] || x[i] != back[i] {
			t.Fatal("1x1 im2col/col2im not identity")
		}
	}
}
