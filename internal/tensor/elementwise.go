package tensor

import (
	"fmt"
	"math"
)

// Axpy computes y += alpha*x over the raw slices (BLAS saxpy).
func Axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if chunks := fanout(len(x), 12*len(x)); chunks > 1 {
		parallelFor(len(x), chunks, func(lo, hi int) { axpyRange(alpha, x, y, lo, hi) })
		return
	}
	axpyRange(alpha, x, y, 0, len(x))
}

func axpyRange(alpha float32, x, y []float32, lo, hi int) {
	// The vector kernel is mul+add per element — bit-identical to this
	// loop (amd64 Go never fuses into FMA), so the ISA does not affect
	// optimizer arithmetic.
	if simdAxpy(alpha, x[lo:hi], y[lo:hi]) {
		return
	}
	for i := lo; i < hi; i++ {
		y[i] += alpha * x[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float32, x []float32) {
	if chunks := fanout(len(x), 8*len(x)); chunks > 1 {
		parallelFor(len(x), chunks, func(lo, hi int) { scaleRange(alpha, x, lo, hi) })
		return
	}
	scaleRange(alpha, x, 0, len(x))
}

func scaleRange(alpha float32, x []float32, lo, hi int) {
	if simdScale(alpha, x[lo:hi]) {
		return
	}
	for i := lo; i < hi; i++ {
		x[i] *= alpha
	}
}

// Dot returns the inner product of x and y, accumulated in float64. The
// vector path keeps the float64 accumulation (each float32 product is
// exact in float64) but sums in four interleaved lanes, so its result can
// differ from the scalar order within float64 rounding of the same exact
// products — deterministic within an ISA, tolerance-exact across ISAs.
func Dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	if sum, ok := simdDot(x, y); ok {
		return sum
	}
	var sum float64
	for i := range x {
		sum += float64(x[i]) * float64(y[i])
	}
	return sum
}

// L2Norm returns the Euclidean norm of x, accumulated in float64 for
// stability (LARC depends on accurate norms of large weight tensors).
func L2Norm(x []float32) float64 {
	if sum, ok := simdDot(x, x); ok {
		return math.Sqrt(sum)
	}
	var sum float64
	for _, v := range x {
		sum += float64(v) * float64(v)
	}
	return math.Sqrt(sum)
}

// Sum returns the sum of all elements, accumulated in float64.
func Sum(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v)
	}
	return s
}

// MaxAbs returns the largest absolute element value (0 for empty input).
func MaxAbs(x []float32) float32 {
	var m float32
	for _, v := range x {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Add returns a new tensor a+b (shapes must match elementwise).
func Add(a, b *Tensor) *Tensor {
	checkSameLen(a, b, "Add")
	out := New(a.shape)
	ad, bd, od := a.data, b.data, out.data
	parallelFor(len(ad), fanout(len(ad), 12*len(ad)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] + bd[i]
		}
	})
	return out
}

// Sub returns a-b.
func Sub(a, b *Tensor) *Tensor {
	checkSameLen(a, b, "Sub")
	out := New(a.shape)
	ad, bd, od := a.data, b.data, out.data
	parallelFor(len(ad), fanout(len(ad), 12*len(ad)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] - bd[i]
		}
	})
	return out
}

// Mul returns the Hadamard (elementwise) product a*b.
func Mul(a, b *Tensor) *Tensor {
	checkSameLen(a, b, "Mul")
	out := New(a.shape)
	ad, bd, od := a.data, b.data, out.data
	parallelFor(len(ad), fanout(len(ad), 12*len(ad)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			od[i] = ad[i] * bd[i]
		}
	})
	return out
}

// AddInPlace computes a += b.
func AddInPlace(a, b *Tensor) {
	checkSameLen(a, b, "AddInPlace")
	Axpy(1, b.data, a.data)
}

// ReLU returns max(x, 0) elementwise.
func ReLU(x *Tensor) *Tensor {
	out := New(x.shape)
	xd, od := x.data, out.data
	parallelFor(len(xd), fanout(len(xd), 8*len(xd)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if xd[i] > 0 {
				od[i] = xd[i]
			}
		}
	})
	return out
}

// ReLUGrad returns grad masked by (x > 0).
func ReLUGrad(x, grad *Tensor) *Tensor {
	checkSameLen(x, grad, "ReLUGrad")
	out := New(x.shape)
	xd, gd, od := x.data, grad.data, out.data
	parallelFor(len(xd), fanout(len(xd), 12*len(xd)), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if xd[i] > 0 {
				od[i] = gd[i]
			}
		}
	})
	return out
}

func checkSameLen(a, b *Tensor, op string) {
	if len(a.data) != len(b.data) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, a.shape, b.shape))
	}
}

// AllFinite reports whether every element is finite (no NaN/Inf). Mixed
// precision training uses this for loss-scale backoff decisions.
func AllFinite(x []float32) bool {
	for _, v := range x {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}

// ScaleAllFinite multiplies every element of x by alpha in place and
// reports whether all scaled values are finite — the trainer's fused
// gradient epilogue (rank averaging + loss-scale removal + overflow check
// in one sweep instead of three).
func ScaleAllFinite(alpha float32, x []float32) bool {
	// The vector form multiplies with the identical single rounding and
	// tests the exponent field for all-ones — the same predicate as the
	// IsNaN/IsInf pair — so scaled values and the verdict are bit-identical
	// across ISAs.
	if ok, handled := simdScaleAllFinite(alpha, x); handled {
		return ok
	}
	ok := true
	for i, v := range x {
		v *= alpha
		x[i] = v
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			ok = false
		}
	}
	return ok
}
