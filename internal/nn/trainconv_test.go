package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/nn"
	"repro/internal/simd"
	"repro/internal/tensor"
)

// The reference below is the materialized formulation the training
// convolutions must reproduce bit for bit: every image expanded by Im2col
// and multiplied by Gemm — pointwise convolutions reading the image as the
// B matrix directly. The data gradient of a stride-1 convolution is the
// incoming gradient convolved with the rotated kernel (rotatedKernel,
// rotatedGeom), expanded and multiplied the same way; a strided one, or one
// padded past the kernel's reach, is a wᵀ·gOut panel scattered by Col2im.

func refConvForward(x, w []float32, n, cin, cout int, g tensor.ConvGeom) []float32 {
	cols, k := g.OutH()*g.OutW(), cin*g.KH*g.KW
	imSize := cin * g.InH * g.InW
	out := make([]float32, n*cout*cols)
	col := make([]float32, k*cols)
	for b := 0; b < n; b++ {
		xb := x[b*imSize : (b+1)*imSize]
		src := col
		if pointwise(g) {
			src = xb
		} else {
			tensor.Im2col(xb, cin, g, col)
		}
		tensor.Gemm(false, false, cout, cols, k, 1, w, k, src, cols, 0, out[b*cout*cols:], cols)
	}
	return out
}

func refConvBackward(x, w, gOut []float32, n, cin, cout int, g tensor.ConvGeom) (gx, gw []float32) {
	cols, k := g.OutH()*g.OutW(), cin*g.KH*g.KW
	imSize := cin * g.InH * g.InW
	gx, gw = make([]float32, n*imSize), make([]float32, cout*k)
	col, dcol := make([]float32, k*cols), make([]float32, k*cols)
	rg, rotated := rotatedGeom(g)
	var wr, rcol []float32
	if rotated {
		wr = rotatedKernel(w, cin, cout, g.KH, g.KW)
		rcol = make([]float32, cout*g.KH*g.KW*g.InH*g.InW)
	}
	for b := 0; b < n; b++ {
		xb, gb := x[b*imSize:(b+1)*imSize], gOut[b*cout*cols:(b+1)*cout*cols]
		gxb := gx[b*imSize : (b+1)*imSize]
		if pointwise(g) {
			tensor.Gemm(false, true, cout, k, cols, 1, gb, cols, xb, cols, 1, gw, k)
			tensor.Gemm(true, false, k, cols, cout, 1, w, k, gb, cols, 0, gxb, cols)
			continue
		}
		tensor.Im2col(xb, cin, g, col)
		tensor.Gemm(false, true, cout, k, cols, 1, gb, cols, col, cols, 1, gw, k)
		if rotated {
			rk, rcols := cout*g.KH*g.KW, g.InH*g.InW
			tensor.Im2col(gb, cout, rg, rcol)
			tensor.Gemm(false, false, cin, rcols, rk, 1, wr, rk, rcol, rcols, 0, gxb, rcols)
			continue
		}
		tensor.Gemm(true, false, k, cols, cout, 1, w, k, gb, cols, 0, dcol, cols)
		tensor.Col2im(dcol, cin, g, gxb)
	}
	return gx, gw
}

// rotatedGeom returns the geometry of a stride-1 convolution's data
// gradient as a convolution over the incoming gradient: padded by
// Dil·(K−1) − Pad per side, swept at the same dilation. ok is false where
// that padding would be negative or the convolution is strided.
func rotatedGeom(g tensor.ConvGeom) (rg tensor.ConvGeom, ok bool) {
	rg = tensor.ConvGeom{InH: g.OutH(), InW: g.OutW(), KH: g.KH, KW: g.KW,
		StrideH: 1, StrideW: 1,
		PadH: g.DilH*(g.KH-1) - g.PadH, PadW: g.DilW*(g.KW-1) - g.PadW,
		DilH: g.DilH, DilW: g.DilW}
	ok = g.StrideH == 1 && g.StrideW == 1 && rg.PadH >= 0 && rg.PadW >= 0
	if ok && (rg.OutH() != g.InH || rg.OutW() != g.InW) {
		panic(fmt.Sprintf("rotated geometry %+v does not map back to %dx%d", rg, g.InH, g.InW))
	}
	return rg, ok
}

// rotatedKernel returns wr[ci, co, KH−1−ky, KW−1−kx] = w[co, ci, ky, kx].
func rotatedKernel(w []float32, cin, cout, kh, kw int) []float32 {
	wr := make([]float32, len(w))
	for co := 0; co < cout; co++ {
		for ci := 0; ci < cin; ci++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					wr[((ci*cout+co)*kh+kh-1-ky)*kw+kw-1-kx] = w[((co*cin+ci)*kh+ky)*kw+kx]
				}
			}
		}
	}
	return wr
}

// directConvBackward sums both gradients of a convolution term by term in
// float64, straight from the definition out[co, oy, ox] = Σ w[co, ci, ky,
// kx]·x[ci, oy·S − P + ky·D, ox·S − P + kx·D]. Alongside each gradient
// element it returns the sum of its terms' magnitudes, which bounds the
// float32 rounding error of any summation order.
func directConvBackward(x, w, gOut []float32, n, cin, cout int, g tensor.ConvGeom) (gx, gxAbs, gw, gwAbs []float64) {
	oh, ow := g.OutH(), g.OutW()
	gx, gxAbs = make([]float64, n*cin*g.InH*g.InW), make([]float64, n*cin*g.InH*g.InW)
	gw, gwAbs = make([]float64, len(w)), make([]float64, len(w))
	for b := 0; b < n; b++ {
		for co := 0; co < cout; co++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					d := float64(gOut[((b*cout+co)*oh+oy)*ow+ox])
					for ci := 0; ci < cin; ci++ {
						for ky := 0; ky < g.KH; ky++ {
							iy := oy*g.StrideH - g.PadH + ky*g.DilH
							if iy < 0 || iy >= g.InH {
								continue
							}
							for kx := 0; kx < g.KW; kx++ {
								ix := ox*g.StrideW - g.PadW + kx*g.DilW
								if ix < 0 || ix >= g.InW {
									continue
								}
								wi := ((co*cin+ci)*g.KH+ky)*g.KW + kx
								xi := ((b*cin+ci)*g.InH+iy)*g.InW + ix
								gx[xi] += float64(w[wi]) * d
								gxAbs[xi] += math.Abs(float64(w[wi]) * d)
								gw[wi] += float64(x[xi]) * d
								gwAbs[wi] += math.Abs(float64(x[xi]) * d)
							}
						}
					}
				}
			}
		}
	}
	return gx, gxAbs, gw, gwAbs
}

// nearDirect checks got against the float64 direct sum: every element must
// lie within γ(terms)·Σ|term| of it, with γ(m) = m·u/(1 − m·u) and u =
// 2⁻²⁴ the float32 unit roundoff — the worst-case error of any order of m−1
// float32 additions or fused multiply-adds over exactly representable
// products. terms is the largest number of terms one element sums.
func nearDirect(t *testing.T, what string, got []float32, want, abs []float64, terms int) {
	t.Helper()
	mu := float64(terms) * 0x1p-24
	gamma := mu / (1 - mu)
	for i := range want {
		if err := math.Abs(float64(got[i]) - want[i]); err > gamma*abs[i] {
			t.Fatalf("%s[%d] = %v, direct sum %v: error %.3g exceeds γ(%d)·Σ|term| = %.3g",
				what, i, got[i], want[i], err, terms, gamma*abs[i])
		}
	}
}

// refDeconvBackward is Deconv2D's backward over the virtual convolution g
// (deconv output → deconv input): one Im2col of the incoming gradient
// feeds both the data- and the weight-gradient GEMM.
func refDeconvBackward(x, w, gOut []float32, n, cin, cout int, g tensor.ConvGeom) (gx, gw []float32) {
	cols, k := g.OutH()*g.OutW(), cout*g.KH*g.KW
	outSize := cout * g.InH * g.InW
	gx, gw = make([]float32, n*cin*cols), make([]float32, cin*k)
	col := make([]float32, k*cols)
	for b := 0; b < n; b++ {
		tensor.Im2col(gOut[b*outSize:(b+1)*outSize], cout, g, col)
		tensor.Gemm(false, false, cin, cols, k, 1, w, k, col, cols, 0, gx[b*cin*cols:], cols)
		tensor.Gemm(false, true, cin, k, cols, 1, x[b*cin*cols:], cols, col, cols, 1, gw, k)
	}
	return gx, gw
}

func pointwise(g tensor.ConvGeom) bool {
	return g.KH == 1 && g.KW == 1 && g.StrideH == 1 && g.StrideW == 1 && g.PadH == 0 && g.PadW == 0
}

func convGeom(h, w, kh, kw, stride, pad, dil int) tensor.ConvGeom {
	return tensor.ConvGeom{InH: h, InW: w, KH: kh, KW: kw, StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad, DilH: dil, DilW: dil}
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// forEachKernelISA runs f under the scalar kernels and, where the CPU has
// them, the AVX2 kernels, restoring the active ISA afterwards.
func forEachKernelISA(t *testing.T, f func(t *testing.T)) {
	orig := tensor.ActiveISA()
	defer tensor.SetKernelISA(orig)
	isas := []tensor.KernelISA{tensor.ISAScalar}
	if simd.HasAVX2() {
		isas = append(isas, tensor.ISAAVX2)
	}
	for _, isa := range isas {
		if _, err := tensor.SetKernelISA(isa); err != nil {
			t.Fatal(err)
		}
		t.Run(isa.String(), f)
	}
}

type convCase struct {
	n, cin, cout, h, w, kh, kw, stride, pad, dil int
}

func (c convCase) String() string {
	kern := fmt.Sprint(c.kh)
	if c.kw != c.kh {
		kern += fmt.Sprintf("x%d", c.kw)
	}
	return fmt.Sprintf("n%d_c%d-%d_%dx%d_k%s_s%d_p%d_d%d",
		c.n, c.cin, c.cout, c.h, c.w, kern, c.stride, c.pad, c.dil)
}

// trainConvCases span one and several register tiles of both kernels,
// strides, dilation, 1×1 kernels and batches of one and three, and every
// data-gradient route: the rotated-kernel convolution (stride 1, Pad ≤
// Dil·(K−1) in both dimensions), the Col2im scatter (strided, or padded
// past the kernel's reach in either dimension) and the pointwise GEMM.
var trainConvCases = []convCase{
	{1, 3, 4, 9, 9, 3, 3, 1, 1, 1},
	{3, 16, 4, 32, 32, 3, 3, 1, 1, 1},  // Tiny Tiramisu's growth-rate layer
	{2, 48, 4, 16, 16, 3, 3, 1, 1, 1},  // a later growth-rate layer: M = cin spans 6×16 tiles
	{3, 5, 20, 12, 10, 3, 3, 2, 1, 1},  // strided
	{1, 8, 24, 16, 16, 3, 3, 1, 2, 2},  // dilated, pad 2
	{2, 6, 10, 11, 9, 3, 3, 1, 0, 1},   // pad 0 ("valid")
	{2, 7, 9, 10, 12, 3, 5, 1, 1, 1},   // KH ≠ KW
	{1, 5, 6, 9, 13, 2, 3, 1, 2, 2},    // KH ≠ KW, dilated, even kernel
	{2, 4, 6, 7, 8, 3, 3, 1, 3, 1},     // pad 3 > Dil·(K−1): Col2im fallback
	{1, 5, 7, 6, 9, 1, 3, 1, 1, 1},     // padded 1×3: fallback in H only
	{1, 20, 17, 13, 11, 3, 3, 2, 2, 2}, // strided and dilated
	{3, 8, 6, 8, 8, 1, 1, 1, 0, 1},     // pointwise
	{3, 8, 24, 8, 8, 1, 1, 1, 0, 1},    // pointwise, blocked
	{1, 6, 18, 10, 10, 1, 1, 2, 0, 1},  // strided 1×1
}

// TestTrainConvMatchesIm2colReference checks the training convolutions —
// Conv2D, FusedConvBias with and without ReLU, and Deconv2D — forward and
// backward against the materialized Im2col/Gemm/Col2im formulation, bit for
// bit, under both kernel ISAs. Each backward runs on a fresh op instance
// that has seen no forward: the ops keep no state between the two passes,
// so one instance may also serve two executors at once.
func TestTrainConvMatchesIm2colReference(t *testing.T) {
	t.Run("shared_executors", sharedAcrossExecutors)
	rng := rand.New(rand.NewSource(34))
	wsp := tensor.NewWorkspace(tensor.NewPool())
	forEachKernelISA(t, func(t *testing.T) {
		for _, tc := range trainConvCases {
			g := convGeom(tc.h, tc.w, tc.kh, tc.kw, tc.stride, tc.pad, tc.dil)
			x := tensor.RandNormal(tensor.NCHW(tc.n, tc.cin, tc.h, tc.w), 0, 1, rng)
			w := tensor.RandNormal(tensor.OIHW(tc.cout, tc.cin, tc.kh, tc.kw), 0, 0.3, rng)
			bias := tensor.RandNormal(tensor.Shape{tc.cout}, 0, 0.3, rng)
			outShape := tensor.NCHW(tc.n, tc.cout, g.OutH(), g.OutW())
			gOut := tensor.RandNormal(outShape, 0, 1, rng)
			cols := g.OutH() * g.OutW()

			wantY := refConvForward(x.Data(), w.Data(), tc.n, tc.cin, tc.cout, g)
			wantGX, wantGW := refConvBackward(x.Data(), w.Data(), gOut.Data(), tc.n, tc.cin, tc.cout, g)

			t.Run("conv2d/"+tc.String(), func(t *testing.T) {
				in := []*tensor.Tensor{x, w}
				y := nn.NewConv2D(tc.stride, tc.pad, tc.dil).ForwardScratch(in, wsp)
				sameBits(t, "y", y.Data(), wantY)
				grads := nn.NewConv2D(tc.stride, tc.pad, tc.dil).BackwardScratch(in, y, gOut, wsp)
				sameBits(t, "gradX", grads[0].Data(), wantGX)
				sameBits(t, "gradW", grads[1].Data(), wantGW)
				// Whatever the route's association, both gradients are the
				// definition's, to within float32 rounding.
				dx, dxAbs, dw, dwAbs := directConvBackward(x.Data(), w.Data(), gOut.Data(), tc.n, tc.cin, tc.cout, g)
				nearDirect(t, "gradX", grads[0].Data(), dx, dxAbs, tc.cout*tc.kh*tc.kw)
				nearDirect(t, "gradW", grads[1].Data(), dw, dwAbs, tc.n*cols)
			})

			for _, relu := range []bool{false, true} {
				t.Run(fmt.Sprintf("fused_relu=%v/%s", relu, tc), func(t *testing.T) {
					// The reference epilogue, and the masked gradient the
					// convolution's backward then sees.
					want := append([]float32(nil), wantY...)
					for i := range want {
						v := want[i] + bias.Data()[i/cols%tc.cout]
						if relu && v < 0 {
							v = 0
						}
						want[i] = v
					}
					masked := append([]float32(nil), gOut.Data()...)
					if relu {
						for i, v := range want {
							if !(v > 0) {
								masked[i] = 0
							}
						}
					}
					mGX, mGW := refConvBackward(x.Data(), w.Data(), masked, tc.n, tc.cin, tc.cout, g)

					in := []*tensor.Tensor{x, w, bias}
					y := nn.NewFusedConvBias(tc.stride, tc.pad, tc.dil, relu).ForwardScratch(in, wsp)
					sameBits(t, "y", y.Data(), want)
					grads := nn.NewFusedConvBias(tc.stride, tc.pad, tc.dil, relu).BackwardScratch(in, y, gOut, wsp)
					sameBits(t, "gradX", grads[0].Data(), mGX)
					sameBits(t, "gradW", grads[1].Data(), mGW)
				})
			}
		}

		for _, tc := range []struct {
			n, cin, cout, h, w, kern, stride, pad, outPad int
		}{
			{1, 4, 3, 8, 8, 3, 2, 1, 1},
			{3, 16, 24, 12, 12, 3, 2, 1, 1}, // both gradients blocked under both ISAs
			{3, 6, 5, 7, 5, 3, 1, 1, 0},     // stride 1
			{1, 20, 8, 5, 6, 2, 2, 0, 0},
		} {
			name := fmt.Sprintf("deconv/n%d_c%d-%d_%dx%d_k%d_s%d_p%d_op%d",
				tc.n, tc.cin, tc.cout, tc.h, tc.w, tc.kern, tc.stride, tc.pad, tc.outPad)
			t.Run(name, func(t *testing.T) {
				op := nn.NewDeconv2DOutPad(tc.stride, tc.pad, tc.outPad)
				x := tensor.RandNormal(tensor.NCHW(tc.n, tc.cin, tc.h, tc.w), 0, 1, rng)
				w := tensor.RandNormal(tensor.OIHW(tc.cin, tc.cout, tc.kern, tc.kern), 0, 0.3, rng)
				in := []*tensor.Tensor{x, w}
				y := op.ForwardScratch(in, wsp)
				ys := y.Shape()
				// The virtual convolution maps the deconv output back down
				// to its input.
				g := tensor.ConvGeom{InH: ys[2], InW: ys[3], KH: tc.kern, KW: tc.kern,
					StrideH: tc.stride, StrideW: tc.stride, PadH: tc.pad, PadW: tc.pad, DilH: 1, DilW: 1}
				gOut := tensor.RandNormal(ys, 0, 1, rng)
				wantGX, wantGW := refDeconvBackward(x.Data(), w.Data(), gOut.Data(), tc.n, tc.cin, tc.cout, g)
				grads := nn.NewDeconv2DOutPad(tc.stride, tc.pad, tc.outPad).BackwardScratch(in, y, gOut, wsp)
				sameBits(t, "gradX", grads[0].Data(), wantGX)
				sameBits(t, "gradW", grads[1].Data(), wantGW)
			})
		}
	})
}

// sharedAcrossExecutors runs one Conv2D and one FusedConvBias instance
// from two pooled executors at once — two graphs applying the same op
// values — and checks every forward and backward against the reference.
// Under -race it proves the ops keep no per-instance state.
func sharedAcrossExecutors(t *testing.T) {
	const n, cin, cout, hw = 2, 16, 8, 12
	g := convGeom(hw, hw, 3, 3, 1, 1, 1)
	conv := nn.NewConv2D(1, 1, 1)
	fused := nn.NewFusedConvBias(1, 1, 1, false)
	rng := rand.New(rand.NewSource(35))

	type replica struct {
		ex         *graph.Executor
		x, w, b    *graph.Node
		y, z, root *graph.Node
		feed       *tensor.Tensor
	}
	build := func() *replica {
		gr := graph.New()
		r := &replica{}
		r.x = gr.Input("x", tensor.NCHW(n, cin, hw, hw))
		r.w = gr.Param("w", tensor.RandNormal(tensor.OIHW(cout, cin, 3, 3), 0, 0.3, rng))
		r.b = gr.Param("b", tensor.RandNormal(tensor.Shape{cout}, 0, 0.3, rng))
		r.y = gr.Apply(conv, r.x, r.w)
		r.z = gr.Apply(fused, r.x, r.w, r.b)
		r.root = gr.Apply(sumAll{}, gr.Apply(nn.Add{}, r.y, r.z))
		r.feed = tensor.RandNormal(tensor.NCHW(n, cin, hw, hw), 0, 1, rng)
		r.ex = graph.NewPooledExecutor(gr, graph.FP32, 1, tensor.NewPool())
		return r
	}
	reps := []*replica{build(), build()}

	var wg sync.WaitGroup
	for _, r := range reps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, w := r.feed.Data(), r.w.Value.Data()
			wantY := refConvForward(x, w, n, cin, cout, g)
			gOut := make([]float32, len(wantY))
			for i := range gOut {
				gOut[i] = float32(1.0 + 0.25*float64(i%7))
			}
			for iter := 0; iter < 4; iter++ {
				if err := r.ex.Forward(map[*graph.Node]*tensor.Tensor{r.x: r.feed}); err != nil {
					t.Error(err)
					return
				}
				y := r.ex.Value(r.y).Data()
				for i := range wantY {
					if math.Float32bits(y[i]) != math.Float32bits(wantY[i]) {
						t.Errorf("iteration %d: y[%d] = %v, reference %v", iter, i, y[i], wantY[i])
						return
					}
				}
				if err := r.ex.Backward(r.root); err != nil {
					t.Error(err)
					return
				}
				// Both ops see sumAll's weights as their upstream gradient,
				// so the weight gradient is twice the reference's.
				_, wantGW := refConvBackward(x, w, gOut, n, cin, cout, g)
				gw := r.ex.Grad(r.w).Data()
				for i := range wantGW {
					if want := wantGW[i] + wantGW[i]; math.Float32bits(gw[i]) != math.Float32bits(want) {
						t.Errorf("iteration %d: gradW[%d] = %v, reference %v", iter, i, gw[i], want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
