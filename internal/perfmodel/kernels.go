package perfmodel

import (
	"fmt"
	"strings"

	"repro/internal/graph"
)

// efficiency is a kernel category's achievable fraction of roofline peaks:
// Math applies to the compute peak, Mem to DRAM bandwidth. A kernel's time
// is max(flops/(peak·Math), bytes/(bw·Mem)) — whichever resource saturates
// first. Values are calibrated against the utilization columns of the
// paper's Figs 8 and 9.
type efficiency struct {
	Math, Mem float64
}

// categoryEff returns the efficiency for a kernel category and precision.
// FP16 convolutions on Tensor Cores reach a lower fraction of their much
// higher peak (the paper's FP16 %math columns: 21–52% vs 52–103% FP32);
// pointwise kernels are bandwidth-bound at ~45–80% of DRAM peak.
func categoryEff(cat graph.Category, p graph.Precision) efficiency {
	fp16 := p == graph.FP16
	switch cat {
	case graph.CatForwardConv:
		if fp16 {
			return efficiency{Math: 0.44, Mem: 0.37}
		}
		return efficiency{Math: 0.78, Mem: 0.35}
	case graph.CatBackwardConv:
		if fp16 {
			return efficiency{Math: 0.42, Mem: 0.35}
		}
		return efficiency{Math: 1.00, Mem: 0.30}
	case graph.CatForwardPointwise, graph.CatBackwardPointwise:
		if fp16 {
			return efficiency{Math: 0.02, Mem: 0.55}
		}
		return efficiency{Math: 0.02, Mem: 0.75}
	case graph.CatOptimizer:
		return efficiency{Math: 0.01, Mem: 0.30}
	case graph.CatCopyTranspose:
		if fp16 {
			return efficiency{Math: 0.01, Mem: 0.52}
		}
		return efficiency{Math: 0.01, Mem: 0.70}
	case graph.CatAllreduce:
		// NCCL intra-node kernels are NVLink-bound, not DRAM-bound; the
		// low Mem fraction mirrors the ~1–3% DRAM utilization in Figs 8/9.
		return efficiency{Math: 0.01, Mem: 0.02}
	case graph.CatTypeConversion:
		return efficiency{Math: 0.01, Mem: 0.45}
	}
	return efficiency{Math: 0.5, Mem: 0.5}
}

// CategoryRow is one line of the Fig 3/8/9 kernel tables.
type CategoryRow struct {
	Category graph.Category
	Kernels  int
	TimeMS   float64
	MathTF   float64 // total TFLOPs in the category (per step)
	MemGB    float64 // total DRAM traffic
	PctTime  float64
	PctMath  float64 // fraction of peak math achieved while running
	PctMem   float64 // fraction of peak bandwidth achieved while running
}

// KernelTable computes the per-category timing table for one training step
// of the analyzed graph on a GPU — the reproduction of Figs 8 and 9.
func KernelTable(a *graph.Analysis, gpu GPU, p graph.Precision) []CategoryRow {
	rows := make([]CategoryRow, 0, graph.NumCategories)
	var total float64
	times := make([]float64, graph.NumCategories)
	for i, cc := range a.PerCategory {
		if cc.Kernels == 0 {
			continue
		}
		eff := categoryEff(cc.Category, p)
		ke := gpu.KernelEff
		if ke == 0 {
			ke = 1
		}
		mathTime := cc.FLOPs / (gpu.Peak(p) * eff.Math * ke)
		memTime := cc.Bytes / (gpu.MemBW * eff.Mem * ke)
		t := mathTime
		if memTime > t {
			t = memTime
		}
		times[i] = t
		total += t
	}
	for i, cc := range a.PerCategory {
		if cc.Kernels == 0 {
			continue
		}
		t := times[i]
		row := CategoryRow{
			Category: cc.Category,
			Kernels:  cc.Kernels,
			TimeMS:   t * 1e3,
			MathTF:   cc.FLOPs / 1e12,
			MemGB:    cc.Bytes / 1e9,
			PctTime:  t / total * 100,
		}
		if t > 0 {
			row.PctMath = cc.FLOPs / t / gpu.Peak(p) * 100
			row.PctMem = cc.Bytes / t / gpu.MemBW * 100
		}
		rows = append(rows, row)
	}
	return rows
}

// StepSeconds returns the modeled GPU time for one training step (the sum
// of the kernel table's category times).
func StepSeconds(a *graph.Analysis, gpu GPU, p graph.Precision) float64 {
	var total float64
	for _, row := range KernelTable(a, gpu, p) {
		total += row.TimeMS / 1e3
	}
	return total
}

// SingleGPU summarizes the Fig 2 row for a network on a device.
type SingleGPU struct {
	Network     string
	GPU         string
	Precision   graph.Precision
	TFPerSample float64
	SamplesPerS float64
	TFps        float64
	PctPeak     float64
}

// SingleGPUPerf computes the Fig 2 row: sustained training rate and FLOP
// rate for one GPU.
func SingleGPUPerf(name string, a *graph.Analysis, gpu GPU, p graph.Precision) SingleGPU {
	step := StepSeconds(a, gpu, p)
	rate := float64(a.BatchSize) / step
	perSample := a.FLOPsPerSample()
	return SingleGPU{
		Network:     name,
		GPU:         gpu.Name,
		Precision:   p,
		TFPerSample: perSample / 1e12,
		SamplesPerS: rate,
		TFps:        rate * perSample / 1e12,
		PctPeak:     rate * perSample / gpu.Peak(p) * 100,
	}
}

// FormatTable renders the kernel table like the paper's appendix figures.
func FormatTable(rows []CategoryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %6s %9s %9s %8s %7s %7s %7s\n",
		"Category", "#Kern", "Time(ms)", "Math(TF)", "Mem(GB)", "%Time", "%Math", "%Mem")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %6d %9.1f %9.2f %8.1f %7.1f %7.1f %7.1f\n",
			r.Category, r.Kernels, r.TimeMS, r.MathTF, r.MemGB, r.PctTime, r.PctMath, r.PctMem)
	}
	return b.String()
}
