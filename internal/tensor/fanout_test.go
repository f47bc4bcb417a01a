package tensor

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

// gatedCase is one call of a gated kernel: the (n, work) pair the kernel
// hands the gate, and a run that returns the call's whole output.
type gatedCase struct {
	name    string
	n, work int
	run     func() []float32
}

// noise is a fixed pseudo-random signal in [-1, 1) that the cases slice
// their read-only inputs from (the gate sits at tens of megabytes, so the
// table shares one buffer instead of drawing each operand afresh).
var noise = func() []float32 {
	x := make([]float32, 10<<20)
	s := uint32(2463534242)
	for i := range x {
		s ^= s << 13
		s ^= s >> 17
		s ^= s << 5
		x[i] = float32(int32(s)) / (1 << 31)
	}
	return x
}()

// rawBytes views x as bytes, for a bitwise comparison at memcmp speed.
func rawBytes(x []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(x))), 4*len(x))
}

// noiseAt returns n values of the signal starting at a per-operand offset.
func noiseAt(off, n int) []float32 { return noise[off : off+n : off+n] }

// gatedCases builds, for every gated kernel, calls just below, at (where a
// shape hits it exactly) and above the gate of 2·fanoutChunkWork. The
// scalar leg carries every kernel; the AVX2 leg repeats only those with a
// vector path of their own (the copies and the eager ops run the same code
// under both, and under AVX2 only single-row products reach gemmSmall,
// which one row never splits).
func gatedCases(scalar bool) []gatedCase {
	const gate = 2 * fanoutChunkWork
	var cases []gatedCase
	add := func(name string, n, work int, run func() []float32) {
		cases = append(cases, gatedCase{fmt.Sprintf("%s/work%+d", name, work-gate), n, work, run})
	}
	for _, n := range []int{gate/12 - 1, gate/12 + 1, gate/12 + 4099} {
		x, y0 := noiseAt(7919, n), noiseAt(15838, n)
		add("Axpy", n, 12*n, func() []float32 {
			y := append([]float32(nil), y0...)
			Axpy(0.37, x, y)
			return y
		})
		if !scalar {
			continue
		}
		add("Add", n, 12*n, func() []float32 { return Add(FromSlice(Shape{n}, x), FromSlice(Shape{n}, y0)).Data() })
		add("Sub", n, 12*n, func() []float32 { return Sub(FromSlice(Shape{n}, x), FromSlice(Shape{n}, y0)).Data() })
		add("Mul", n, 12*n, func() []float32 { return Mul(FromSlice(Shape{n}, x), FromSlice(Shape{n}, y0)).Data() })
		add("ReLUGrad", n, 12*n, func() []float32 { return ReLUGrad(FromSlice(Shape{n}, x), FromSlice(Shape{n}, y0)).Data() })
	}
	for _, n := range []int{gate/8 - 1, gate / 8, gate/8 + 4099} {
		x0 := noiseAt(23757, n)
		add("Scale", n, 8*n, func() []float32 {
			x := append([]float32(nil), x0...)
			Scale(1.7, x)
			return x
		})
		if scalar {
			add("ReLU", n, 8*n, func() []float32 { return ReLU(FromSlice(Shape{n}, x0)).Data() })
		}
	}
	// Blocked GEMM: 160 rows are two M blocks under both geometries, one
	// K block of 256. The transposed variants differ only in the packing
	// under the shared fan-out, so they ride at the gate alone.
	for _, n := range []int{409, 410, 700} {
		const m, k = 160, 256
		a, b, c0 := noiseAt(31676, m*k), noiseAt(39595, k*n), noiseAt(47514, m*n)
		for v := 0; v < 4 && (v == 0 || n == 410); v++ {
			tA, tB := v&1 != 0, v&2 != 0
			lda, ldb := k, n
			if tA {
				lda = m
			}
			if tB {
				ldb = k
			}
			add(fmt.Sprintf("Gemm/blocked/tA%v/tB%v", tA, tB), 2, 2*m*n*k, func() []float32 {
				c := append([]float32(nil), c0...)
				Gemm(tA, tB, m, n, k, 0.5, a, lda, b, ldb, 0.25, c, n)
				return c
			})
		}
	}
	if scalar {
		for _, k := range []int{1023, 1024, 1100} {
			const m, n = 8, 2048
			a, b := noiseAt(55433, m*k), noiseAt(63352, k*n)
			add("Gemm/small", m, 2*m*n*k, func() []float32 {
				c := make([]float32, m*n)
				Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
				return c
			})
		}
	}
	for _, m := range []int{2047, 2048, 2100} {
		if !scalar {
			break
		}
		const n = 2048
		c0 := noiseAt(71271, m*n)
		add("Gemm/scaleC", m, 8*m*n, func() []float32 {
			c := append([]float32(nil), c0...)
			Gemm(false, false, m, n, 0, 1, nil, 0, nil, n, 0.5, c, n)
			return c
		})
	}
	for _, k := range []int{255, 256, 260} {
		const m, n = 64, 1024
		a, b := make([]int8, m*k), make([]int8, k*n)
		for i := range a {
			a[i] = int8(127 * noise[i])
		}
		for i := range b {
			b[i] = int8(127 * noise[len(a)+i])
		}
		scales := noiseAt(79190, m)
		add("GemmInt8", m, 2*m*n*k, func() []float32 {
			c := make([]float32, m*n)
			GemmInt8(m, n, k, a, scales, b, 0.01, c)
			return c
		})
	}
	for _, c := range []int{56, 57, 60} {
		if !scalar {
			break
		}
		const hw = 128
		g := ConvGeom{InH: hw, InW: hw, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}
		img, cols := noiseAt(87109, c*hw*hw), noiseAt(95028, c*9*hw*hw)
		add("Im2col", c, 4*len(cols), func() []float32 {
			dst := make([]float32, len(cols))
			Im2col(img, c, g, dst)
			return dst
		})
		add("Col2im", c, 4*len(cols), func() []float32 {
			dst := append([]float32(nil), img...)
			Col2im(cols, c, g, dst)
			return dst
		})
	}
	for _, c := range []int{63, 64, 70} {
		const n, h, w = 4, 128, 128
		x := noiseAt(2947, n*c*h*w)
		add("NCHWToNHWC", n, 8*len(x), func() []float32 {
			dst := make([]float32, len(x))
			NCHWToNHWCInto(x, n, c, h, w, dst)
			return dst
		})
		add("NHWCToNCHW", n, 8*len(x), func() []float32 {
			dst := make([]float32, len(x))
			NHWCToNCHWInto(x, n, c, h, w, dst)
			return dst
		})
	}
	return cases
}

// TestGatedKernelsBitIdentical runs every gated kernel just below, at and
// above the gate at 1, 2 and 5 workers, under the scalar kernels (what
// EXACLIM_NOSIMD=1 selects) and the AVX2 ones: within an ISA the output
// must not differ by a bit, whatever the fan-out. The (n, work) each case
// records is checked against the gate first, so the table is known to
// straddle it.
func TestGatedKernelsBitIdentical(t *testing.T) {
	defer SetParallelism(Parallelism())
	for _, isa := range []KernelISA{ISAScalar, ISAAVX2} {
		t.Run(isa.String(), func(t *testing.T) {
			defer withISA(t, isa)()
			split := 0
			for _, tc := range gatedCases(isa == ISAScalar) {
				SetParallelism(2)
				above := tc.work >= 2*fanoutChunkWork
				if got := fanout(tc.n, tc.work) > 1; got != above {
					t.Errorf("%s: fans out = %v with work %d against a gate of %d", tc.name, got, tc.work, 2*fanoutChunkWork)
				}
				if above {
					split++
				}
				SetParallelism(1)
				want := tc.run()
				for _, workers := range []int{2, 5} {
					SetParallelism(workers)
					got := tc.run()
					if !bytes.Equal(rawBytes(got), rawBytes(want)) {
						t.Errorf("%s: output at %d workers differs from the output at 1", tc.name, workers)
					}
				}
			}
			if split == 0 {
				t.Error("no case above the gate")
			}
		})
	}
}
