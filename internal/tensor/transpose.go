package tensor

import "fmt"

// NCHWToNHWC converts a [N,C,H,W] tensor into [N,H,W,C] layout. TensorFlow
// inserts exactly this kind of layout change between NHWC-preferring ops
// and cuDNN's NCHW kernels; the paper's profiles bill it under
// "Copies/Transposes" and its removal from the DeepLabv3+ decoder bought
// 10% at full scale.
func NCHWToNHWC(x *Tensor) *Tensor {
	s := x.Shape()
	if s.Rank() != 4 {
		panic(fmt.Sprintf("tensor: NCHWToNHWC wants rank 4, got %v", s))
	}
	n, c, h, w := s[0], s[1], s[2], s[3]
	out := New(Shape{n, h, w, c})
	NCHWToNHWCInto(x.Data(), n, c, h, w, out.Data())
	return out
}

// NCHWToNHWCInto performs the layout change into caller-provided storage
// (e.g. a workspace scratch buffer), writing every element of dst. Per
// image this is a plain C×(H·W) matrix transpose, so it rides the blocked
// transposeF32 kernel (8×8 in-register tiles under AVX2).
func NCHWToNHWCInto(xd []float32, n, c, h, w int, dst []float32) {
	transposeImages(xd, n, c, h*w, dst)
}

// NHWCToNCHW converts a [N,H,W,C] tensor back to [N,C,H,W].
func NHWCToNCHW(x *Tensor) *Tensor {
	s := x.Shape()
	if s.Rank() != 4 {
		panic(fmt.Sprintf("tensor: NHWCToNCHW wants rank 4, got %v", s))
	}
	n, h, w, c := s[0], s[1], s[2], s[3]
	out := New(Shape{n, c, h, w})
	NHWCToNCHWInto(x.Data(), n, c, h, w, out.Data())
	return out
}

// NHWCToNCHWInto performs the inverse layout change into caller-provided
// storage, writing every element of dst — per image an (H·W)×C transpose.
func NHWCToNCHWInto(xd []float32, n, c, h, w int, dst []float32) {
	transposeImages(xd, n, h*w, c, dst)
}

// transposeImages transposes each of n contiguous rows×cols images of src
// into dst, fanning out over images.
func transposeImages(src []float32, n, rows, cols int, dst []float32) {
	if chunks := fanout(n, 8*n*rows*cols); chunks > 1 {
		parallelFor(n, chunks, func(lo, hi int) { transposeRange(src, rows, cols, dst, lo, hi) })
		return
	}
	transposeRange(src, rows, cols, dst, 0, n)
}

func transposeRange(src []float32, rows, cols int, dst []float32, lo, hi int) {
	sz := rows * cols
	for img := lo; img < hi; img++ {
		transposeF32(src[img*sz:(img+1)*sz], rows, cols, dst[img*sz:(img+1)*sz])
	}
}

// transposeF32 writes the transpose of the rows×cols row-major matrix src
// into dst: dst[j*rows+i] = src[i*cols+j]. Pure data movement, bit-exact
// under every ISA; the AVX2 path moves 8×8 tiles entirely in registers
// (unpack → shuffle → 128-bit lane swap), turning a stride-c scatter into
// contiguous line-width stores.
func transposeF32(src []float32, rows, cols int, dst []float32) {
	if len(src) < rows*cols || len(dst) < rows*cols {
		panic(fmt.Sprintf("tensor: transposeF32 needs %d elements, have src %d dst %d",
			rows*cols, len(src), len(dst)))
	}
	if simdTranspose(src, rows, cols, dst) {
		return
	}
	for i := 0; i < rows; i++ {
		row := src[i*cols : (i+1)*cols]
		for j, v := range row {
			dst[j*rows+i] = v
		}
	}
}
