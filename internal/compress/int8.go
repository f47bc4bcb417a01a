// Package compress holds the symmetric 8-bit weight quantizer of the INT8
// inference engine.
package compress

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnquantizable reports input the quantizer cannot represent: NaN or
// ±Inf values, or a group so small in magnitude that its code step
// underflows to zero. Unguarded, such inputs silently produce garbage
// codes. Callers match with errors.Is.
var ErrUnquantizable = errors.New("compress: unquantizable values")

// Symmetric 8-bit quantization for the INT8 inference engine.
//
// Weights are quantized offline, once per inference clone, with one scale
// per group — the per-output-channel rows of an OIHW weight matrix — so a
// channel of small filters is not crushed by a sibling with large dynamic
// range: value ≈ Scale[g]·code with code ∈ [−127, 127] (the symmetric
// range; −128 is unused so negation stays exact). Activations are
// quantized dynamically per tensor by the kernels themselves
// (tensor.GemmInt8 callers); only weights pass through this checked path,
// because weights are where NaN/Inf corruption would silently poison every
// request.

// maxInt8Code is the symmetric 8-bit code bound.
const maxInt8Code = 127

// QuantizeSymInt8 quantizes values, viewed as groups equal contiguous
// groups, to symmetric int8 codes with one scale per group. The
// reconstruction error is bounded by Scale[g]/2 per element (half a code
// step, i.e. maxAbs/254 of the group's largest magnitude).
//
// Inputs containing NaN or ±Inf, and groups whose largest magnitude is so
// small the code step underflows float32, return ErrUnquantizable.
func QuantizeSymInt8(values []float32, groups int) (codes []int8, scales []float32, err error) {
	if groups < 1 || len(values)%groups != 0 {
		return nil, nil, fmt.Errorf("compress: %d values do not split into %d groups", len(values), groups)
	}
	per := len(values) / groups
	codes = make([]int8, len(values))
	scales = make([]float32, groups)
	for g := 0; g < groups; g++ {
		seg := values[g*per : (g+1)*per]
		var maxAbs float32
		for i, v := range seg {
			if v != v || v > math.MaxFloat32 || v < -math.MaxFloat32 {
				return nil, nil, fmt.Errorf("compress: group %d holds %v at offset %d: %w",
					g, v, i, ErrUnquantizable)
			}
			if v < 0 {
				v = -v
			}
			if v > maxAbs {
				maxAbs = v
			}
		}
		if maxAbs == 0 {
			// An all-zero group quantizes exactly with scale 0.
			continue
		}
		scale := maxAbs / maxInt8Code
		if scale == 0 {
			return nil, nil, fmt.Errorf("compress: group %d magnitude %v underflows the code step: %w",
				g, maxAbs, ErrUnquantizable)
		}
		scales[g] = scale
		// Quantize in float64: float32 inputs are exact in float64, so each
		// code is within half a step of v/scale before clamping.
		inv := 1 / float64(scale)
		dst := codes[g*per : (g+1)*per]
		for i, v := range seg {
			code := math.Round(float64(v) * inv)
			if code > maxInt8Code {
				code = maxInt8Code
			} else if code < -maxInt8Code {
				code = -maxInt8Code
			}
			dst[i] = int8(code)
		}
	}
	return codes, scales, nil
}

// MaxInt8Error returns the reconstruction error bound of one group: half a
// code step.
func MaxInt8Error(scale float32) float64 { return float64(scale) / 2 }
