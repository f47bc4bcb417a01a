package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/simd"
)

// convGemmGeoms spans the geometry axes ConvGemm's packer walks: outputs
// from 1×1 to 48×48 (odd, non-square, and wider than one NC block),
// strides 1 and 2, pads 0–4, dilations 1, 2 and 4 — some with a bordered
// image larger than the k·cols panel — and 1×1 and non-square kernels.
var convGemmGeoms = []ConvGeom{
	{InH: 3, InW: 3, KH: 3, KW: 3, StrideH: 1, StrideW: 1, DilH: 1, DilW: 1},                     // 1×1 out
	{InH: 1, InW: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1},   // 1×1 out, all border
	{InH: 5, InW: 7, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1},   // 5×7
	{InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, // the serving tile
	{InH: 16, InW: 16, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, // 8×8, strided
	{InH: 13, InW: 11, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 2, PadW: 2, DilH: 2, DilW: 2}, // 7×6, strided dilated
	{InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilH: 2, DilW: 2},   // 8×8, dilated
	{InH: 6, InW: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilH: 4, DilW: 4},   // 2×2, bordered 10×10
	{InH: 4, InW: 5, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 4, PadW: 4, DilH: 4, DilW: 4},   // 4×5, bordered 12×13
	{InH: 20, InW: 18, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 2, DilW: 2}, // 18×16
	{InH: 31, InW: 29, KH: 3, KW: 3, StrideH: 2, StrideW: 2, DilH: 1, DilW: 1},                   // 15×14, unpadded
	{InH: 9, InW: 9, KH: 1, KW: 1, StrideH: 2, StrideW: 2, DilH: 1, DilW: 1},                     // strided 1×1
	{InH: 10, InW: 10, KH: 1, KW: 1, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, // padded 1×1
	{InH: 12, InW: 17, KH: 1, KW: 3, StrideH: 1, StrideW: 1, PadW: 1, DilH: 1, DilW: 1},          // 1×3 kernel
	{InH: 47, InW: 45, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilH: 1, DilW: 1}, // 47×45
	{InH: 48, InW: 48, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, // 48×48: two NC blocks
	{InH: 50, InW: 50, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 2, DilW: 2}, // 48×48, dilated
	{InH: 96, InW: 96, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, DilH: 1, DilW: 1}, // 48×48, strided
}

// TestConvGemmMatchesIm2colGemm checks ConvGemm against the materialized
// formulation, Im2col followed by Gemm, bit for bit, under both kernel
// ISAs: cout 1, 8, 24 and 150 reach the register-tile edges and the M-block
// fan-out, cin up to 30 makes k = 270 (two K blocks) on 3×3 kernels, and
// the output starts as NaN so an element ConvGemm fails to write shows.
// The product size is capped so the whole grid stays cheap under -race;
// every axis is still reached below the cap.
func TestConvGemmMatchesIm2colGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	wsp := NewWorkspace(NewPool())
	forEachISA(t, func(t *testing.T) {
		for _, g := range convGemmGeoms {
			cols := g.OutH() * g.OutW()
			for _, cin := range []int{1, 3, 30} {
				k := cin * g.KH * g.KW
				x := randomSlice(rng, cin*g.InH*g.InW)
				col := make([]float32, k*cols)
				Im2col(x, cin, g, col)
				for _, cout := range []int{1, 8, 24, 150} {
					if cout*cols*k > 1<<24 {
						continue
					}
					w := randomSlice(rng, cout*k)
					for i := 0; i < len(w); i += 7 {
						w[i] = 0 // zero weights, which no route may skip
					}
					want := make([]float32, cout*cols)
					Gemm(false, false, cout, cols, k, 1, w, k, col, cols, 0, want, cols)
					got := make([]float32, cout*cols)
					for i := range got {
						got[i] = float32(math.NaN())
					}
					ConvGemm(w, cout, x, cin, g, got, wsp)
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s cin=%d cout=%d: out[%d] = %v, Im2col+Gemm %v",
								geomName(g), cin, cout, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestConvImagePackMatchesPackB checks the implicit packer against packB
// and packB16 over the materialized Im2col matrix, for every K block and
// every NC block of each geometry: the same bytes, dead lanes included.
func TestConvImagePackMatchesPackB(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, g := range convGemmGeoms {
		cols := g.OutH() * g.OutW()
		const cin = 30 // k = 270 on 3×3 kernels: a full and a partial K block
		k := cin * g.KH * g.KW
		x := randomSlice(rng, cin*g.InH*g.InW)
		col := make([]float32, k*cols)
		Im2col(x, cin, g, col)
		ph, pw := g.bordered()
		pad := make([]float32, cin*ph*pw)
		borderImage(x, cin, g, ph, pw, pad)
		img := convImage{pad: pad, g: g, ph: ph, pw: pw}
		for _, nr := range []int{gemmNR, avxNR} {
			const kc, nc = gemmKC, gemmNC
			panel := ((nc + nr - 1) / nr) * nr * kc
			want, got := make([]float32, panel), make([]float32, panel)
			for jc := 0; jc < cols; jc += nc {
				for pc := 0; pc < k; pc += kc {
					ncEff, kcEff := min(nc, cols-jc), min(kc, k-pc)
					for i := range got {
						want[i], got[i] = float32(math.NaN()), float32(math.Inf(1))
					}
					bSource{b: col, ldb: cols}.pack(nr, jc, ncEff, pc, kcEff, want)
					bSource{img: &img}.pack(nr, jc, ncEff, pc, kcEff, got)
					used := ((ncEff + nr - 1) / nr) * nr * kcEff
					for i := 0; i < used; i++ {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s nr=%d jc=%d pc=%d: panel[%d] = %v, packed Im2col %v",
								geomName(g), nr, jc, pc, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestConvGemmWeightGradMatchesIm2colGemm checks ConvGemmWeightGrad
// against the materialized formulation, Im2col followed by the transposed
// Gemm, bit for bit, under both kernel ISAs, over the geometries, cin and
// cout of TestConvGemmMatchesIm2colGemm. Each case accumulates two images
// with β = 1 onto a nonzero gradient, as a training batch does, and the
// second image carries a NaN and both infinities so that non-finite
// operands take the same path through either formulation.
func TestConvGemmWeightGradMatchesIm2colGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	wsp := NewWorkspace(NewPool())
	forEachISA(t, func(t *testing.T) {
		for _, g := range convGemmGeoms {
			cols := g.OutH() * g.OutW()
			for _, cin := range []int{1, 3, 30} {
				k := cin * g.KH * g.KW
				imSize := cin * g.InH * g.InW
				x := randomSlice(rng, 2*imSize)
				x[imSize] = float32(math.NaN())
				x[imSize+imSize/2] = float32(math.Inf(1))
				x[2*imSize-1] = float32(math.Inf(-1))
				col := make([]float32, k*cols)
				for _, cout := range []int{1, 8, 24, 150} {
					if cout*cols*k > 1<<24 {
						continue
					}
					gOut := randomSlice(rng, 2*cout*cols)
					want := randomSlice(rng, cout*k)
					got := append([]float32(nil), want...)
					for b := 0; b < 2; b++ {
						Im2col(x[b*imSize:(b+1)*imSize], cin, g, col)
						Gemm(false, true, cout, k, cols, 1, gOut[b*cout*cols:], cols, col, cols, 1, want, k)
						ConvGemmWeightGrad(gOut[b*cout*cols:(b+1)*cout*cols], cout,
							x[b*imSize:(b+1)*imSize], cin, g, got, wsp)
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s cin=%d cout=%d: gw[%d] = %v, Im2col+Gemm %v",
								geomName(g), cin, cout, i, got[i], want[i])
						}
					}
				}
			}
		}
	})
}

// TestConvGemmISAParity checks that ConvGemm and ConvGemmWeightGrad give
// the same bits under the scalar and the AVX2 kernels, over every geometry
// of convGemmGeoms (each stride, dilation and padding, down to 1×1 outputs
// and single-channel stride-1 convolutions) with cin {1, 3, 30} and cout
// {1, 8, 24, 150}: register-tile edges of both kernels, one and two K
// blocks, and the M-block fan-out.
func TestConvGemmISAParity(t *testing.T) {
	if !simd.HasAVX2() {
		t.Skip("AVX2 unavailable")
	}
	rng := rand.New(rand.NewSource(34))
	wsp := NewWorkspace(NewPool())
	run := func(isa KernelISA, f func()) {
		defer withISA(t, isa)()
		f()
	}
	for _, g := range convGemmGeoms {
		cols := g.OutH() * g.OutW()
		for _, cin := range []int{1, 3, 30} {
			k := cin * g.KH * g.KW
			x := randomSlice(rng, cin*g.InH*g.InW)
			for _, cout := range []int{1, 8, 24, 150} {
				if cout*cols*k > 1<<24 {
					continue
				}
				w := randomSlice(rng, cout*k)
				gOut := randomSlice(rng, cout*cols)
				gw0 := randomSlice(rng, cout*k)
				var out, gw [2][]float32
				for i, isa := range []KernelISA{ISAScalar, ISAAVX2} {
					out[i] = make([]float32, cout*cols)
					gw[i] = append([]float32(nil), gw0...)
					run(isa, func() {
						ConvGemm(w, cout, x, cin, g, out[i], wsp)
						ConvGemmWeightGrad(gOut, cout, x, cin, g, gw[i], wsp)
					})
				}
				sameBitsAcrossISAs(t, fmt.Sprintf("%s cin=%d cout=%d ConvGemm", geomName(g), cin, cout), out[0], out[1])
				sameBitsAcrossISAs(t, fmt.Sprintf("%s cin=%d cout=%d ConvGemmWeightGrad", geomName(g), cin, cout), gw[0], gw[1])
			}
		}
	}
}

// TestConvImagePackTMatchesPackB checks the transposed implicit packer
// against packB and packB16 with transB over the materialized Im2col
// matrix, for every K block (output pixels) and every NC block (taps) of
// each geometry: the same bytes, dead lanes included. Besides the
// drivers' own block sizes, a small KC and NC split the pixels and taps
// into many blocks whose starts fall inside an output row and inside a
// kernel window. Under the AVX2 leg the 16-wide strips take the 8×8
// register transposes; under the scalar leg, the per-pixel gather.
func TestConvImagePackTMatchesPackB(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	forEachISA(t, func(t *testing.T) { packTMatchesPackB(t, rng) })
}

func packTMatchesPackB(t *testing.T, rng *rand.Rand) {
	for _, g := range convGemmGeoms {
		cols := g.OutH() * g.OutW()
		for _, cin := range []int{1, 3, 30} {
			k := cin * g.KH * g.KW
			x := randomSlice(rng, cin*g.InH*g.InW)
			x[0] = float32(math.NaN())
			x[len(x)-1] = float32(math.Inf(-1))
			col := make([]float32, k*cols)
			Im2col(x, cin, g, col)
			ph, pw := g.bordered()
			pad := make([]float32, cin*ph*pw)
			borderImage(x, cin, g, ph, pw, pad)
			img := convImage{pad: pad, g: g, ph: ph, pw: pw}
			for _, nr := range []int{gemmNR, avxNR} {
				for _, blk := range [][2]int{{gemmKC, gemmNC}, {100, 48}} {
					kc, nc := blk[0], blk[1]
					panel := ((nc + nr - 1) / nr) * nr * kc
					want, got := make([]float32, panel), make([]float32, panel)
					for jc := 0; jc < k; jc += nc {
						for pc := 0; pc < cols; pc += kc {
							ncEff, kcEff := min(nc, k-jc), min(kc, cols-pc)
							for i := range got {
								want[i], got[i] = float32(math.NaN()), float32(math.Inf(1))
							}
							bSource{transB: true, b: col, ldb: cols}.pack(nr, jc, ncEff, pc, kcEff, want)
							bSource{imgT: &img}.pack(nr, jc, ncEff, pc, kcEff, got)
							used := ((ncEff + nr - 1) / nr) * nr * kcEff
							for i := 0; i < used; i++ {
								if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
									t.Fatalf("%s cin=%d nr=%d kc=%d nc=%d jc=%d pc=%d: panel[%d] = %v, packed Im2col %v",
										geomName(g), cin, nr, kc, nc, jc, pc, i, got[i], want[i])
								}
							}
						}
					}
				}
			}
		}
	}
}

// forEachISA runs f under the scalar kernels and, where the CPU has them,
// the AVX2 kernels, restoring the active ISA afterwards.
func forEachISA(t *testing.T, f func(t *testing.T)) {
	orig := ActiveISA()
	defer SetKernelISA(orig)
	isas := []KernelISA{ISAScalar}
	if simd.HasAVX2() {
		isas = append(isas, ISAAVX2)
	}
	for _, isa := range isas {
		if _, err := SetKernelISA(isa); err != nil {
			t.Fatal(err)
		}
		t.Run(isa.String(), f)
	}
}

func geomName(g ConvGeom) string {
	return fmt.Sprintf("in%dx%d_k%dx%d_s%d_p%d/%d_d%d", g.InH, g.InW, g.KH, g.KW,
		g.StrideH, g.PadH, g.PadW, g.DilH)
}
