package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Tensor is a dense, contiguous, row-major float32 tensor.
//
// The zero value is not usable; construct tensors with New, FromSlice, or
// the initializer helpers (Zeros, Full, RandNormal...).
type Tensor struct {
	shape Shape
	data  []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(shape Shape) *Tensor {
	if !shape.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v", shape))
	}
	return &Tensor{shape: shape.Clone(), data: make([]float32, shape.NumElements())}
}

// FromSlice wraps data (not copied) in a tensor of the given shape.
func FromSlice(shape Shape, data []float32) *Tensor {
	if shape.NumElements() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v needs %d elements, got %d",
			shape, shape.NumElements(), len(data)))
	}
	return &Tensor{shape: shape.Clone(), data: data}
}

// Zeros is an alias for New, named for readability at call sites.
func Zeros(shape Shape) *Tensor { return New(shape) }

// Full returns a tensor with every element set to v.
func Full(shape Shape, v float32) *Tensor {
	t := New(shape)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Ones returns a tensor of ones.
func Ones(shape Shape) *Tensor { return Full(shape, 1) }

// RandNormal returns a tensor with elements drawn from N(mean, std²).
func RandNormal(shape Shape, mean, std float64, rng *rand.Rand) *Tensor {
	t := New(shape)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64()*std + mean)
	}
	return t
}

// RandUniform returns a tensor with elements drawn uniformly from [lo, hi).
func RandUniform(shape Shape, lo, hi float64, rng *rand.Rand) *Tensor {
	t := New(shape)
	for i := range t.data {
		t.data[i] = float32(lo + rng.Float64()*(hi-lo))
	}
	return t
}

// HeInit fills a convolution filter tensor using He-normal initialization,
// the standard scheme for ReLU networks (std = sqrt(2 / fanIn)).
func HeInit(shape Shape, rng *rand.Rand) *Tensor {
	fanIn := 1
	for _, d := range shape[1:] {
		fanIn *= d
	}
	std := math.Sqrt(2 / float64(fanIn))
	return RandNormal(shape, 0, std, rng)
}

// Shape returns the tensor's shape. Callers must not mutate it.
func (t *Tensor) Shape() Shape { return t.shape }

// Data returns the backing slice. Mutations are visible to the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// NumElements returns the element count.
func (t *Tensor) NumElements() int { return len(t.data) }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape)
	copy(c.data, t.data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must match in element count.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.data) != len(src.data) {
		panic(fmt.Sprintf("tensor: CopyFrom size mismatch %v vs %v", t.shape, src.shape))
	}
	copy(t.data, src.data)
}

// Reshape returns a view sharing data with t but described by newShape.
func (t *Tensor) Reshape(newShape Shape) *Tensor {
	if newShape.NumElements() != len(t.data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v to %v", t.shape, newShape))
	}
	return &Tensor{shape: newShape.Clone(), data: t.data}
}

// ViewRows points t at the first n rows (leading-dimension entries) of src:
// t becomes an [n, src.Shape()[1:]...] view sharing src's storage. t's
// header and shape storage are reused, so re-pointing one view per run
// allocates nothing; a zero Tensor (new(Tensor)) is a valid t.
func (t *Tensor) ViewRows(src *Tensor, n int) {
	if src.shape.Rank() == 0 || n < 0 || n > src.shape[0] {
		panic(fmt.Sprintf("tensor: cannot view %d rows of %v", n, src.shape))
	}
	t.shape = append(t.shape[:0], src.shape...)
	t.shape[0] = n
	t.data = src.data[:n*(len(src.data)/src.shape[0])]
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float32 {
	return t.data[t.offset(idx)]
}

// Set stores v at the given multi-dimensional index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero resets every element to 0.
func (t *Tensor) Zero() {
	clear(t.data)
}

// String renders a compact description (shape plus a few leading values).
func (t *Tensor) String() string {
	n := min(len(t.data), 8)
	return fmt.Sprintf("Tensor%v%v…", t.shape, t.data[:n])
}
