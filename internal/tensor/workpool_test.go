package tensor

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/racecheck"
)

// TestParallelForZeroAlloc: steady-state dispatch must not allocate. The
// closure is hoisted outside the measured region (constructing a capturing
// closure is the caller's allocation, not the pool's), and a warm-up call
// spawns the workers first.
func TestParallelForZeroAlloc(t *testing.T) {
	defer SetParallelism(SetParallelism(4))

	x := make([]float32, 1<<14)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x[i]++
		}
	}
	parallelFor(len(x), 4, body) // warm-up: spawn pool workers
	if allocs := testing.AllocsPerRun(100, func() { parallelFor(len(x), 4, body) }); allocs != 0 {
		t.Fatalf("steady-state parallelFor allocates %.1f objects/op, want 0", allocs)
	}
}

// TestGatedKernelsInlineZeroAlloc: below the gate a kernel runs inline and
// builds no closure — at any worker count, every gated hot-path kernel
// allocates nothing. (The sizes are the tile-scale shapes the workloads
// run; the eager Add/Sub/Mul/ReLU ops allocate their result and are not
// part of the contract.)
func TestGatedKernelsInlineZeroAlloc(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts under the race detector describe the detector")
	}
	defer SetParallelism(SetParallelism(4))
	const c, hw = 16, 32
	g := ConvGeom{InH: hw, InW: hw, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}
	img := make([]float32, c*hw*hw)
	cols := make([]float32, c*9*hw*hw)
	w := make([]float32, 32*c*9)
	out := make([]float32, 32*hw*hw)
	wq := make([]int8, 32*c*9)
	colsQ := make([]int8, len(cols))
	scales := make([]float32, 32)
	nhwc := make([]float32, len(img))
	for name, f := range map[string]func(){
		"Im2col":       func() { Im2col(img, c, g, cols) },
		"Col2im":       func() { Col2im(cols, c, g, img) },
		"Gemm/blocked": func() { Gemm(false, false, 32, hw*hw, c*9, 1, w, c*9, cols, hw*hw, 0, out, hw*hw) },
		"Gemm/bwdData": func() { Gemm(true, false, c*9, hw*hw, 32, 1, w, c*9, out, hw*hw, 0, cols, hw*hw) },
		"Gemm/oneRow":  func() { Gemm(false, false, 1, hw*hw, c*9, 1, w, c*9, cols, hw*hw, 0, out, hw*hw) },
		"GemmInt8":     func() { GemmInt8(32, hw*hw, c*9, wq, scales, colsQ, 1, out) },
		"axpy":         func() { axpy(0.5, cols, cols) },
		"Scale":        func() { Scale(0.5, cols) },
		"NCHWToNHWC":   func() { NCHWToNHWCInto(img, 4, c/4, hw, hw, nhwc) },
		"NHWCToNCHW":   func() { NHWCToNCHWInto(nhwc, 4, c/4, hw, hw, img) },
	} {
		f() // warm the panel caches
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/op below the gate, want 0", name, allocs)
		}
	}
}

// TestWorkPoolHammer drives the pool from many goroutines concurrently
// (serving replicas) with nested fan-outs inside the bodies (kernels that
// call kernels) — run under -race this is the pool's data-race guard.
func TestWorkPoolHammer(t *testing.T) {
	defer SetParallelism(SetParallelism(4))

	const goroutines = 8
	const rounds = 50
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var inner atomic.Int64
				parallelFor(64, 4, func(lo, hi int) {
					// Nested fan-out: must fall back inline, not deadlock.
					parallelFor(hi-lo, 4, func(l, h int) {
						inner.Add(int64(h - l))
					})
				})
				if inner.Load() != 64 {
					t.Errorf("round %d: covered %d indices, want 64", r, inner.Load())
					return
				}
				total.Add(inner.Load())
			}
		}()
	}
	wg.Wait()
	if total.Load() != goroutines*rounds*64 {
		t.Fatalf("total work %d, want %d", total.Load(), goroutines*rounds*64)
	}
}

// TestWorkPoolGrows: a wider fan-out than any before (raising
// core.Config.KernelWorkers between runs does this) must grow the pool and
// still cover the range.
func TestWorkPoolGrows(t *testing.T) {
	var count atomic.Int64
	body := func(lo, hi int) { count.Add(int64(hi - lo)) }
	parallelFor(512, 2, body)
	parallelFor(512, 11, body)
	if count.Load() != 1024 {
		t.Fatalf("covered %d, want 1024", count.Load())
	}
}
