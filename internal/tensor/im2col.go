package tensor

// ConvGeom captures the spatial geometry of a 2-D convolution. It covers
// strided, padded and dilated ("atrous", in the paper's DeepLabv3+
// terminology) convolutions.
type ConvGeom struct {
	InH, InW         int // input spatial size
	KH, KW           int // kernel size
	StrideH, StrideW int
	PadH, PadW       int // symmetric zero padding
	DilH, DilW       int // dilation (1 = dense convolution)
}

// OutH returns the output height for the geometry.
func (g ConvGeom) OutH() int {
	eff := (g.KH-1)*g.DilH + 1
	return (g.InH+2*g.PadH-eff)/g.StrideH + 1
}

// OutW returns the output width for the geometry.
func (g ConvGeom) OutW() int {
	eff := (g.KW-1)*g.DilW + 1
	return (g.InW+2*g.PadW-eff)/g.StrideW + 1
}

// SamePad returns the padding that keeps outSize == ceil(inSize/stride) for
// the given kernel/dilation, i.e. TensorFlow "SAME" padding (symmetric
// approximation: the left/top share of the total pad).
func SamePad(k, dil int) int {
	eff := (k-1)*dil + 1
	return (eff - 1) / 2
}

// Im2col expands an input image (C×H×W, single batch element, stored
// contiguously in src) into a column matrix dst of shape
// (C*KH*KW) × (OutH*OutW), the layout consumed by the GEMM convolution
// path. Out-of-bounds (padding) taps contribute zeros.
func Im2col(src []float32, c int, g ConvGeom, dst []float32) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	if len(dst) < c*g.KH*g.KW*cols {
		panic("tensor: Im2col dst too small")
	}
	if chunks := fanout(c, 4*c*g.KH*g.KW*cols); chunks > 1 {
		parallelFor(c, chunks, func(clo, chi int) { im2colRange(src, c, g, dst, clo, chi) })
		return
	}
	im2colRange(src, c, g, dst, 0, c)
}

func im2colRange(src []float32, c int, g ConvGeom, dst []float32, clo, chi int) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	for ch := clo; ch < chi; ch++ {
		chanSrc := src[ch*g.InH*g.InW:]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := dst[((ch*g.KH+kh)*g.KW+kw)*cols:]
				ih0 := kh*g.DilH - g.PadH
				iw0 := kw*g.DilW - g.PadW
				for oh := 0; oh < outH; oh++ {
					ih := ih0 + oh*g.StrideH
					dstRow := row[oh*outW : oh*outW+outW]
					if ih < 0 || ih >= g.InH {
						clear(dstRow)
						continue
					}
					srcRow := chanSrc[ih*g.InW : ih*g.InW+g.InW]
					if g.StrideW == 1 {
						// Stride-1: the valid span is one contiguous copy;
						// only the padded edge columns are zeroed.
						lo := min(outW, max(0, -iw0))
						hi := min(outW, g.InW-iw0)
						clear(dstRow[:lo])
						if hi > lo {
							copy(dstRow[lo:hi], srcRow[iw0+lo:iw0+hi])
						}
						clear(dstRow[max(lo, hi):])
						continue
					}
					for ow := 0; ow < outW; ow++ {
						iw := iw0 + ow*g.StrideW
						if iw < 0 || iw >= g.InW {
							dstRow[ow] = 0
						} else {
							dstRow[ow] = srcRow[iw]
						}
					}
				}
			}
		}
	}
}

// Col2im is the adjoint of Im2col: it scatters (accumulates) the column
// matrix src of shape (C*KH*KW) × (OutH*OutW) back into a C×H×W image dst.
// dst is accumulated into, not overwritten, so the caller usually zeroes it
// first; this matches the gradient-accumulation semantics of backprop.
func Col2im(src []float32, c int, g ConvGeom, dst []float32) {
	if len(dst) < c*g.InH*g.InW {
		panic("tensor: Col2im dst too small")
	}
	// Channels are independent, so the scatter parallelizes safely over them.
	if chunks := fanout(c, 4*c*g.KH*g.KW*g.OutH()*g.OutW()); chunks > 1 {
		parallelFor(c, chunks, func(clo, chi int) { col2imRange(src, c, g, dst, clo, chi) })
		return
	}
	col2imRange(src, c, g, dst, 0, c)
}

func col2imRange(src []float32, c int, g ConvGeom, dst []float32, clo, chi int) {
	outH, outW := g.OutH(), g.OutW()
	cols := outH * outW
	for ch := clo; ch < chi; ch++ {
		chanDst := dst[ch*g.InH*g.InW:]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				row := src[((ch*g.KH+kh)*g.KW+kw)*cols:]
				ih0 := kh*g.DilH - g.PadH
				iw0 := kw*g.DilW - g.PadW
				for oh := 0; oh < outH; oh++ {
					ih := ih0 + oh*g.StrideH
					if ih < 0 || ih >= g.InH {
						continue
					}
					srcRow := row[oh*outW : oh*outW+outW]
					dstRow := chanDst[ih*g.InW : ih*g.InW+g.InW]
					if g.StrideW == 1 {
						// Stride-1: accumulate the single valid span with
						// no per-element bounds tests.
						lo := min(outW, max(0, -iw0))
						hi := min(outW, g.InW-iw0)
						if hi > lo {
							dr := dstRow[iw0+lo:]
							for ow, v := range srcRow[lo:hi] {
								dr[ow] += v
							}
						}
						continue
					}
					for ow := 0; ow < outW; ow++ {
						iw := iw0 + ow*g.StrideW
						if iw >= 0 && iw < g.InW {
							dstRow[iw] += srcRow[ow]
						}
					}
				}
			}
		}
	}
}
