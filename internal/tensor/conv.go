package tensor

import "repro/internal/simd"

// Implicit-GEMM convolution: the two convolution GEMMs whose operand is
// the im2col matrix of an image — the forward out[cout, OutH·OutW] = w[cout,
// k] · im2col(x), k = cin·KH·KW, and the weight gradient gw[cout, k] +=
// gOut[cout, OutH·OutW] · im2col(x)ᵀ — computed without ever writing that
// matrix, for training and serving alike. ConvGemm also serves the data
// gradient of a stride-1 convolution, which is the incoming gradient
// convolved with the rotated, channel-transposed kernel (nn.Conv2D's
// backward).
//
// Materializing the panel costs k·cols floats and one full write pass, and
// the blocked GEMM then copies it a second time into its packed B panel.
// Instead, ConvGemm and ConvGemmWeightGrad copy the image once into a
// zero-bordered buffer of cin·PH·PW floats — roughly KH·KW× smaller than
// the panel — and take every im2col element from there: each im2col row is
// the bordered image shifted by one kernel tap. Both run Gemm's own blocked
// driver with a B source that packs its NR-wide strips straight from the
// bordered image — the im2col matrix for the forward (convImage.pack), its
// transpose for the weight gradient (convImage.packT). The packed panel
// holds exactly the bytes packB/packB16 would write from Im2col(x), so the
// K-block and M-block loops and the micro-kernels see the same operands in
// the same order, and every output element gets Gemm's bits.
//
// Border positions hold literal +0, as the im2col panel pads, so even the
// border arithmetic is identical. Pointwise (1×1, stride 1, unpadded)
// convolutions need no expansion at all; callers pass the image to Gemm
// as the B matrix directly.

// ConvGemm computes one image's convolution out[cout, OutH·OutW] = w[cout,
// k] ⊛ x[cin, InH, InW] (w row-major [cout, cin·KH·KW], every element of
// out written) with the same bits as Im2col into a k × OutH·OutW panel
// followed by Gemm(false, false, cout, OutH·OutW, k, 1, w, k, panel, …, 0,
// out, OutH·OutW), without materializing the panel. Scratch comes from
// wsp.
func ConvGemm(w []float32, cout int, x []float32, cin int, g ConvGeom, out []float32, wsp *Workspace) {
	cols := g.OutH() * g.OutW()
	k := cin * g.KH * g.KW
	if len(out) < cout*cols || len(w) < cout*k || len(x) < cin*g.InH*g.InW {
		panic("tensor: ConvGemm operand too short")
	}
	if cout == 0 || cols == 0 || k == 0 {
		clear(out[:cout*cols])
		return
	}
	ph, pw := g.bordered()
	pad := wsp.GetF32(cin * ph * pw)
	borderImage(x, cin, g, ph, pw, pad)
	img := convImage{pad: pad, g: g, ph: ph, pw: pw}
	gemmBlocked(ActiveISA() == ISAAVX2, false, cout, cols, k, 1, w, k,
		bSource{img: &img}, 0, out, cols)
	wsp.PutF32(pad)
}

// ConvGemmWeightGrad accumulates one image's convolution weight gradient,
// gw[cout, k] += gOut[cout, OutH·OutW] · im2col(x)ᵀ (x is cin × InH × InW,
// gw row-major [cout, cin·KH·KW]), with the same bits as Im2col into a k ×
// OutH·OutW panel followed by Gemm(false, true, cout, k, OutH·OutW, 1,
// gOut, OutH·OutW, panel, OutH·OutW, 1, gw, k), without materializing the
// panel. Scratch comes from wsp.
func ConvGemmWeightGrad(gOut []float32, cout int, x []float32, cin int, g ConvGeom, gw []float32, wsp *Workspace) {
	cols := g.OutH() * g.OutW()
	k := cin * g.KH * g.KW
	if len(gOut) < cout*cols || len(gw) < cout*k || len(x) < cin*g.InH*g.InW {
		panic("tensor: ConvGemmWeightGrad operand too short")
	}
	if cout == 0 || cols == 0 || k == 0 {
		return
	}
	ph, pw := g.bordered()
	pad := wsp.GetF32(cin * ph * pw)
	borderImage(x, cin, g, ph, pw, pad)
	img := convImage{pad: pad, g: g, ph: ph, pw: pw}
	gemmBlocked(ActiveISA() == ISAAVX2, false, cout, k, cols, 1, gOut, cols,
		bSource{imgT: &img}, 1, gw, k)
	wsp.PutF32(pad)
}

// bordered returns the size of the zero-bordered image the im2col taps
// index: tap (ky, kx) at output pixel (oy, ox) reads bordered row
// oy·StrideH + ky·DilH and column ox·StrideW + kx·DilW, where bordered row
// r holds input row r − PadH. The bottom and right borders cover only what
// the taps reach, so with dilation they may exceed PadH/PadW, and rows or
// columns no tap reaches are dropped.
func (g ConvGeom) bordered() (ph, pw int) {
	return (g.OutH()-1)*g.StrideH + (g.KH-1)*g.DilH + 1,
		(g.OutW()-1)*g.StrideW + (g.KW-1)*g.DilW + 1
}

// borderImage copies the cin-channel image x into pad (cin × ph × pw) at
// offset (PadH, PadW), writing +0 everywhere else.
func borderImage(x []float32, cin int, g ConvGeom, ph, pw int, pad []float32) {
	lo := min(g.PadW, pw)       // first interior column
	hi := min(g.PadW+g.InW, pw) // end of the interior columns
	for c := 0; c < cin; c++ {
		plane := pad[c*ph*pw : (c+1)*ph*pw]
		for r := 0; r < ph; r++ {
			row := plane[r*pw : (r+1)*pw]
			iy := r - g.PadH
			if iy < 0 || iy >= g.InH {
				clear(row)
				continue
			}
			clear(row[:lo])
			copy(row[lo:hi], x[(c*g.InH+iy)*g.InW:])
			clear(row[hi:])
		}
	}
}

// convImage is the implicit im2col matrix of one zero-bordered image: row
// p of the K dimension is tap (c, ky, kx) = (p / (KH·KW), p / KW % KH,
// p % KW), column j is output pixel (oy, ox) = (j / OutW, j % OutW), and
// element (p, j) is pad[(c·ph + oy·StrideH + ky·DilH)·pw + ox·StrideW +
// kx·DilW].
type convImage struct {
	pad    []float32
	g      ConvGeom
	ph, pw int
}

// pack writes rows [pc, pc+kcEff) × columns [jc, jc+ncEff) of the implicit
// matrix as nr-wide strips, dst[strip·kcEff·nr + p·nr + j], zero-padding
// the dead lanes of the last strip: byte for byte what packB (nr = 8) or
// packB16 (nr = 16) writes from the materialized im2col matrix. A strip
// inside one output row of a stride-1 convolution is one nr-float copy per
// tap; any other strip gathers through a per-strip pixel-offset table. Tap
// and pixel counters advance by increment; the only divisions locate the
// block's first tap and first pixel.
func (im *convImage) pack(nr, jc, ncEff, pc, kcEff int, dst []float32) {
	g, pw := im.g, im.pw

	var tap [max(gemmKC, avxKC)]int
	taps := tap[:kcEff]
	im.tapOffsets(pc, taps)

	outW := g.OutW()
	oy, ox := jc/outW, jc%outW
	var pix [avxNR]int
	for s := 0; s*nr < ncEff; s++ {
		d := dst[s*kcEff*nr : (s+1)*kcEff*nr]
		cols := min(nr, ncEff-s*nr)
		if cols == nr && g.StrideW == 1 && ox+nr <= outW {
			src := im.pad[oy*g.StrideH*pw+ox:]
			if nr == avxNR {
				for p, t := range taps {
					*(*[avxNR]float32)(d[p*avxNR:]) = *(*[avxNR]float32)(src[t:])
				}
			} else {
				for p, t := range taps {
					*(*[gemmNR]float32)(d[p*gemmNR:]) = *(*[gemmNR]float32)(src[t:])
				}
			}
			if ox += nr; ox == outW {
				oy, ox = oy+1, 0
			}
			continue
		}
		for j := range pix[:cols] {
			pix[j] = oy*g.StrideH*pw + ox*g.StrideW
			if ox++; ox == outW {
				oy, ox = oy+1, 0
			}
		}
		for p, t := range taps {
			row := d[p*nr : (p+1)*nr]
			src := im.pad[t:]
			for j, o := range pix[:cols] {
				row[j] = src[o]
			}
			clear(row[cols:])
		}
	}
}

// packT writes rows [pc, pc+kcEff) × columns [jc, jc+ncEff) of the
// implicit matrix's transpose — K runs over output pixels, N over taps —
// as nr-wide strips, dst[strip·kcEff·nr + p·nr + j], zero-padding the dead
// lanes of the last strip: byte for byte what packB (nr = 8) or packB16
// (nr = 16) writes with transB from the materialized im2col matrix. Row p
// of a strip gathers its taps at one pixel through a per-strip tap-offset
// table. Under AVX2, eight pixels that are contiguous in the bordered
// image — a run inside one output row of a stride-1 convolution — read
// eight contiguous floats per tap, so each group of eight taps over them
// is an 8×8 block transposed in registers.
func (im *convImage) packT(nr, jc, ncEff, pc, kcEff int, dst []float32) {
	g, pw := im.g, im.pw

	// Offsets of pixels [pc, pc+kcEff) into the bordered image's first plane.
	var pix [max(gemmKC, avxKC)]int
	pixs := pix[:kcEff]
	outW := g.OutW()
	oy, ox := pc/outW, pc%outW
	for p := range pixs {
		pixs[p] = oy*g.StrideH*pw + ox*g.StrideW
		if ox++; ox == outW {
			oy, ox = oy+1, 0
		}
	}

	vec := nr == avxNR && simd.UseAVX2()
	var tap [avxNR]int
	for s := 0; s*nr < ncEff; s++ {
		d := dst[s*kcEff*nr : (s+1)*kcEff*nr]
		taps := tap[:min(nr, ncEff-s*nr)]
		im.tapOffsets(jc+s*nr, taps)
		wide := 0 // leading taps the 8×8 blocks cover
		if vec {
			wide = len(taps) &^ 7
		}
		for p := 0; p < len(pixs); {
			// Every pixel step is at least +1, so a run whose ends are 7
			// apart is contiguous.
			run, lo := 1, 0
			if wide > 0 && p+8 <= len(pixs) && pixs[p+7] == pixs[p]+7 {
				run, lo = 8, wide
				src := im.pad[pixs[p]:]
				for h := 0; h < wide; h += 8 {
					simdGatherT8x8(src, (*[8]int)(taps[h:]), d[p*nr+h:], nr)
				}
			}
			for q := p; q < p+run && lo < nr; q++ {
				row := d[q*nr : (q+1)*nr]
				src := im.pad[pixs[q]:]
				for j, t := range taps[lo:] {
					row[lo+j] = src[t]
				}
				clear(row[len(taps):])
			}
			p += run
		}
	}
}

// tapOffsets writes the offsets of taps [p0, p0+len(dst)) into the
// bordered image — tap (c, ky, kx) at output pixel (0, 0) — advancing the
// tap counters by increment.
func (im *convImage) tapOffsets(p0 int, dst []int) {
	g, ph, pw := im.g, im.ph, im.pw
	c, ky, kx := p0/(g.KH*g.KW), p0/g.KW%g.KH, p0%g.KW
	off := (c*ph+ky*g.DilH)*pw + kx*g.DilW
	for p := range dst {
		dst[p] = off
		off += g.DilW
		if kx++; kx == g.KW {
			kx, off = 0, off-g.KW*g.DilW+g.DilH*pw
			if ky++; ky == g.KH {
				ky, off = 0, off+(ph-g.KH*g.DilH)*pw
			}
		}
	}
}
