package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/climate"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// fmaPeak is the measured single-core FMA peak in GFLOP/s (0 without
// AVX2+FMA): the best of several timings of the synthetic peak kernel.
func fmaPeak(budget time.Duration) float64 {
	const iters, flopsPerIter = 1 << 16, 192
	if !tensor.FMAPeakProbe(iters) {
		return 0
	}
	best := 0.0
	for start := time.Now(); time.Since(start) < budget; {
		t := time.Now()
		tensor.FMAPeakProbe(iters)
		best = math.Max(best, iters*flopsPerIter/time.Since(t).Seconds()/1e9)
	}
	return best
}

// gemmGFLOPS is the rate of an m×n×k product at the current fan-out: the best
// timing within budget.
func gemmGFLOPS(m, n, k int, budget time.Duration) float64 {
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	c := make([]float32, m*n)
	for i := range a {
		a[i] = float32(i%7) * 0.25
	}
	for i := range b {
		b[i] = float32(i%5) * 0.5
	}
	best := math.Inf(1)
	reps := 0
	for start := time.Now(); reps < 3 || time.Since(start) < budget; reps++ {
		t := time.Now()
		tensor.Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n)
		best = math.Min(best, time.Since(t).Seconds())
	}
	return 2 * float64(m) * float64(n) * float64(k) / best / 1e9
}

// tileNet is an untrained replica of the 16×16 serving architecture, for
// probes that depend on shapes and not on weights.
func tileNet() (*models.Network, error) {
	return models.BuildTiramisu(models.TinyTiramisu(models.Config{
		BatchSize: 1, InChannels: climate.NumChannels, NumClasses: climate.NumClasses,
		Height: 16, Width: 16, Seed: 3,
	}))
}

// heaviestConv returns the per-image GEMM dimensions of the convolution
// with the most forward FLOPs in the 16×16 serving network at batch 8.
func heaviestConv() (m, n, k int, err error) {
	net, err := tileNet()
	if err != nil {
		return 0, 0, 0, err
	}
	g, _, err := graph.CloneForInference(net.Graph, net.Logits, 8, nn.InferenceFusions)
	if err != nil {
		return 0, 0, 0, err
	}
	best := 0.0
	for _, node := range g.Nodes() {
		if node.Kind != graph.KindOp || len(node.Inputs) < 2 || node.Inputs[1].Shape.Rank() != 4 {
			continue
		}
		if cat, _ := node.Op.Categories(); cat != graph.CatForwardConv {
			continue
		}
		in := make([]tensor.Shape, len(node.Inputs))
		for i, x := range node.Inputs {
			in[i] = x.Shape
		}
		if f := node.Op.FwdCost(in, node.Shape, 4).FLOPs; f > best {
			w := node.Inputs[1].Shape // OIHW
			best, m, n, k = f, w[0], node.Shape[2]*node.Shape[3], w[1]*w[2]*w[3]
		}
	}
	if best == 0 {
		return 0, 0, 0, fmt.Errorf("no convolution found in the serving network")
	}
	return m, n, k, nil
}

// tensorProbes sets the tensor.* kernel rates and returns the FMA peak it
// measured, for hostNoisy to compare against at the end of the run.
//
// The rates are single-threaded: kernel fan-out is pinned to 1 while they
// are taken. tensor.gemm_fanout_gain is the one exception — the square GEMM
// at the fan-out the workloads run with (tensor.Parallelism, nproc by
// default) over the same GEMM at fan-out 1: what the work pool buys, or
// costs, on this host.
func tensorProbes(o *outcome, budget time.Duration) float64 {
	fanned := gemmGFLOPS(256, 512, 512, budget/5)
	defer tensor.SetParallelism(tensor.SetParallelism(1))
	peak := fmaPeak(budget / 5)
	conv := gemmGFLOPS(32, 1024, 288, budget/5)
	square := gemmGFLOPS(256, 512, 512, budget/5)
	o.set("tensor.fma_peak_gflops", peak)
	o.set("tensor.gemm_conv_gflops", conv)
	o.set("tensor.gemm_square_gflops", square)
	if square > 0 {
		o.set("tensor.gemm_fanout_gain", fanned/square)
	}
	if m, n, k, err := heaviestConv(); err == nil {
		o.set("tensor.gemm_tile_gflops", gemmGFLOPS(m, n, k, budget/5))
		o.note("tensor.gemm_tile.m", float64(m))
		o.note("tensor.gemm_tile.n", float64(n))
		o.note("tensor.gemm_tile.k", float64(k))
	}
	if peak > 0 {
		o.set("tensor.gemm_conv_peak_frac", conv/peak)
	}
	return peak
}

// hostNoisy marks the run when the host changed speed under it: the FMA
// peak at the end differs from the one at the start by more than a tenth,
// or the open-loop generator fired more than 2 ms late at its 95th
// percentile.
func hostNoisy(e *env, o *outcome, peakAtStart float64) {
	noisy := o.values["bench.gen_late_p95_ms"] > 2
	if end := fmaPeak(e.dur(0.008)); peakAtStart > 0 && math.Abs(end-peakAtStart)/peakAtStart > 0.10 {
		noisy = true
	}
	if noisy {
		o.set("bench.host_noisy", 1)
	}
}
