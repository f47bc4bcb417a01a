package compress

import (
	"errors"
	"math"
	"testing"
)

// TestQuantizeSymInt8EdgeCases drives the symmetric 8-bit weight quantizer
// through every input class the ErrUnquantizable guard covers plus its
// group-shape validation.
func TestQuantizeSymInt8EdgeCases(t *testing.T) {
	cases := []struct {
		name     string
		values   []float32
		groups   int
		wantErr  bool
		sentinel error
	}{
		{"clean two groups", []float32{1, -2, 3, -4}, 2, false, nil},
		{"all-zero group quantizes exactly", []float32{0, 0, 1, 2}, 2, false, nil},
		{"NaN", []float32{1, float32(math.NaN())}, 1, true, ErrUnquantizable},
		{"+Inf", []float32{float32(math.Inf(1)), 1}, 1, true, ErrUnquantizable},
		{"-Inf", []float32{float32(math.Inf(-1)), 1}, 1, true, ErrUnquantizable},
		{"denormal magnitude underflows code step", []float32{math.SmallestNonzeroFloat32}, 1, true, ErrUnquantizable},
		{"groups must divide values", []float32{1, 2, 3}, 2, true, nil},
		{"zero groups", []float32{1, 2}, 0, true, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			codes, scales, err := QuantizeSymInt8(tc.values, tc.groups)
			if tc.wantErr {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
					t.Fatalf("want %v, got %v", tc.sentinel, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			per := len(tc.values) / tc.groups
			for i, v := range tc.values {
				g := i / per
				got := float64(scales[g]) * float64(codes[i])
				if math.Abs(got-float64(v)) > float64(scales[g])/2 {
					t.Fatalf("element %d: |%v − %v| exceeds half a code step %v", i, got, v, float64(scales[g])/2)
				}
				if codes[i] == -128 {
					t.Fatalf("element %d uses asymmetric code −128", i)
				}
			}
		})
	}
}

// TestQuantizeSymInt8PerGroupScales verifies groups scale independently: a
// group of tiny weights keeps full code resolution next to a huge sibling.
func TestQuantizeSymInt8PerGroupScales(t *testing.T) {
	values := []float32{1e-3, -1e-3, 1e3, -1e3}
	codes, scales, err := QuantizeSymInt8(values, 2)
	if err != nil {
		t.Fatal(err)
	}
	if scales[0] >= scales[1] {
		t.Fatalf("want independent scales, got %v ≥ %v", scales[0], scales[1])
	}
	for _, i := range []int{0, 2} {
		if codes[i] != 127 {
			t.Fatalf("group max at %d should hit full code range, got %d", i, codes[i])
		}
	}
}
