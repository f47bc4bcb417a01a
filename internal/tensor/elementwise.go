package tensor

import (
	"fmt"
	"math"
)

// axpy computes y += alpha*x over the raw slices (BLAS saxpy).
func axpy(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	if chunks := fanout(len(x), 12*len(x)); chunks > 1 {
		parallelFor(len(x), chunks, func(lo, hi int) { axpyRange(alpha, x, y, lo, hi) })
		return
	}
	axpyRange(alpha, x, y, 0, len(x))
}

func axpyRange(alpha float32, x, y []float32, lo, hi int) {
	// The vector kernel is mul+add per element — bit-identical to this
	// loop on amd64, where Go never fuses into FMA, so the ISA does not
	// affect optimizer arithmetic. (GOARCH=arm64 may fuse this loop.)
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

// dot returns the inner product of x and y, accumulated in float64, with
// the same bits under every ISA. Each float32 product is exact in float64,
// so only the summation order matters, and both ISAs use one: below 32
// elements, in order; from 32 on, dotAVX2's eight lanes — lane l sums
// elements 8i+l — reduced as ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), then
// the n mod 8 tail in order.
func dot(x, y []float32) float64 {
	if len(x) != len(y) {
		panic("tensor: dot length mismatch")
	}
	if sum, ok := simdDot(x, y); ok {
		return sum
	}
	var sum float64
	m := 0
	if len(x) >= 32 {
		var l [8]float64
		m = len(x) &^ 7
		for i := 0; i < m; i += 8 {
			xi, yi := (*[8]float32)(x[i:]), (*[8]float32)(y[i:])
			for j := range l {
				l[j] += float64(xi[j]) * float64(yi[j])
			}
		}
		sum = ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
	}
	for i := m; i < len(x); i++ {
		sum += float64(x[i]) * float64(y[i])
	}
	return sum
}

// L2Norm returns the Euclidean norm of x, accumulated in float64 for
// stability (LARC depends on accurate norms of large weight tensors), in
// dot's order.
func L2Norm(x []float32) float64 { return math.Sqrt(dot(x, x)) }

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

// AddInPlace computes a += b.
func AddInPlace(a, b *Tensor) {
	checkSameLen(a, b, "AddInPlace")
	axpy(1, b.data, a.data)
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
