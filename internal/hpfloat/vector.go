package hpfloat

import "math"

// Vector kernels for bulk FP32↔FP16 conversion and FP16-storage arithmetic.
// These model the "Type Conversions" kernel category that appears in the
// paper's FP16 profiles (Figs 8 and 9).

// RoundTrip simulates storing a float32 slice in FP16: every element is
// rounded to the nearest representable half and converted back, in place.
// Running activations/gradients through RoundTrip reproduces the numerical
// behaviour of an FP16 storage format with FP32 compute. The F16C kernel
// behind it is bit-identical to the scalar reference, so the FP16
// executor's activation rounding does not depend on the active ISA.
func RoundTrip(x []float32) {
	if simdRoundTrip(x) {
		return
	}
	for i, v := range x {
		x[i] = fromFloat32(v).Float32()
	}
}

// WireWords returns how many packed float32 words carry n FP16 values on
// the wire: two halves per 32-bit word.
func WireWords(n int) int { return (n + 1) / 2 }

// PackWords rounds src to FP16 and packs the halves two-per-word into dst
// (len(dst) ≥ WireWords(len(src))). The words are raw bit containers — the
// FP16 wire format of the cross-node gradient exchange — and must only be
// copied, never used arithmetically.
func PackWords(src, dst []float32) {
	n := len(src)
	if len(dst) < WireWords(n) {
		panic("hpfloat: PackWords destination too short")
	}
	i := simdPackWords(src, dst)
	for ; i+1 < n; i += 2 {
		w := uint32(fromFloat32(src[i])) | uint32(fromFloat32(src[i+1]))<<16
		dst[i/2] = math.Float32frombits(w)
	}
	if n%2 == 1 && i < n {
		dst[n/2] = math.Float32frombits(uint32(fromFloat32(src[n-1])))
	}
}

// UnpackAddWords unpacks n FP16 values from wire words and accumulates them
// into dst in FP32 — the receive side of the FP16 wire format (FP32
// accumulate on reduce).
func UnpackAddWords(words, dst []float32) {
	n := len(dst)
	i := simdUnpackAddWords(words, dst)
	for ; i+1 < n; i += 2 {
		w := math.Float32bits(words[i/2])
		dst[i] += half(w & 0xFFFF).Float32()
		dst[i+1] += half(w >> 16).Float32()
	}
	if n%2 == 1 && i < n {
		dst[n-1] += half(math.Float32bits(words[n/2]) & 0xFFFF).Float32()
	}
}

// UnpackWords unpacks n FP16 values from wire words into dst, overwriting.
func UnpackWords(words, dst []float32) {
	n := len(dst)
	i := simdUnpackWords(words, dst)
	for ; i+1 < n; i += 2 {
		w := math.Float32bits(words[i/2])
		dst[i] = half(w & 0xFFFF).Float32()
		dst[i+1] = half(w >> 16).Float32()
	}
	if n%2 == 1 && i < n {
		dst[n-1] = half(math.Float32bits(words[n/2]) & 0xFFFF).Float32()
	}
}

// LossScaler implements static/backoff loss scaling for mixed-precision
// training. Gradients are multiplied by Scale before the FP16 round trip so
// that small magnitudes stay above the FP16 underflow threshold, and divided
// back out before the optimizer applies them. On overflow the step is
// skipped and the scale halved; after GrowthInterval clean steps the scale
// doubles (the scheme used by production mixed-precision trainers).
type LossScaler struct {
	Scale          float64
	GrowthInterval int
	MaxScale       float64

	cleanSteps   int
	skippedSteps int
}

// NewLossScaler returns a scaler with the conventional defaults:
// initial scale 2^10, growth every 200 clean steps, max scale 2^15 (staying
// below the FP16 max so scaled activations don't saturate immediately).
func NewLossScaler() *LossScaler {
	return &LossScaler{Scale: 1024, GrowthInterval: 200, MaxScale: 32768}
}

// Apply multiplies the gradient slice by the current scale.
func (s *LossScaler) Apply(grad []float32) {
	f := float32(s.Scale)
	for i := range grad {
		grad[i] *= f
	}
}

// Unapply divides the gradient slice by the current scale.
func (s *LossScaler) Unapply(grad []float32) {
	inv := float32(1 / s.Scale)
	for i := range grad {
		grad[i] *= inv
	}
}

// Update records the outcome of a step. overflowed=true means non-finite
// values were seen in the scaled gradients; the scale halves and the caller
// must skip the optimizer update. Returns whether the step should be applied.
func (s *LossScaler) Update(overflowed bool) bool {
	if overflowed {
		s.Scale /= 2
		if s.Scale < 1 {
			s.Scale = 1
		}
		s.cleanSteps = 0
		s.skippedSteps++
		return false
	}
	s.cleanSteps++
	if s.GrowthInterval > 0 && s.cleanSteps >= s.GrowthInterval {
		s.Scale *= 2
		if s.MaxScale > 0 && s.Scale > s.MaxScale {
			s.Scale = s.MaxScale
		}
		s.cleanSteps = 0
	}
	return true
}

// SkippedSteps returns how many steps were skipped due to overflow.
func (s *LossScaler) SkippedSteps() int { return s.skippedSteps }

// ScalerState is the serializable dynamic state of a LossScaler — the piece
// a training checkpoint must carry so a resumed run's scale trajectory
// (backoff position, growth countdown) continues exactly where the
// interrupted run stopped. Configuration (GrowthInterval, MaxScale) is not
// included: it is rebuilt from the run configuration.
type ScalerState struct {
	Scale        float64
	CleanSteps   int
	SkippedSteps int
}

// CaptureState snapshots the scaler's dynamic state.
func (s *LossScaler) CaptureState() ScalerState {
	return ScalerState{Scale: s.Scale, CleanSteps: s.cleanSteps, SkippedSteps: s.skippedSteps}
}

// RestoreState reinstates a snapshot taken with CaptureState.
func (s *LossScaler) RestoreState(st ScalerState) {
	s.Scale = st.Scale
	s.cleanSteps = st.CleanSteps
	s.skippedSteps = st.SkippedSteps
}
