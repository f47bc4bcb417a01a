package perfmodel

import "math"

// This file models two of the paper's extension topics: strong scaling
// (Section III mentions it as the fallback when large-batch
// hyperparameters cannot be found) and the learning-rate scaling rule
// implied by the Figure 6 run labels.

// StrongScalingAt evaluates the model with a FIXED global batch spread over
// n GPUs: per-GPU work shrinks as 1/n while communication and fixed
// overheads do not, so efficiency decays much faster than in weak scaling —
// the reason the paper targets weak scaling whenever convergent
// hyperparameters exist.
func (s ScalingConfig) StrongScalingAt(nGPUs, globalBatch int) Point {
	base := s.BaseStep() // time for the full per-GPU reference batch
	perGPUBatch := float64(globalBatch) / float64(nGPUs)
	refBatch := float64(s.Analysis.BatchSize)
	compute := base * perGPUBatch / refBatch
	// Communication volume (gradients) is batch-independent; jitter scales
	// with the (shrunken) compute; launch/control costs are fixed.
	step := compute + s.exposedCommSeconds(nGPUs) + s.jitterSeconds(nGPUs, compute)
	images := float64(globalBatch) / step
	flopsPerSample := s.Analysis.FLOPsPerSample()
	singleStep := base * float64(globalBatch) / refBatch
	return Point{
		GPUs:       nGPUs,
		ImagesPerS: images,
		PFps:       images * flopsPerSample / 1e15,
		PeakPFps:   images * flopsPerSample / 1e15,
		Efficiency: (singleStep / float64(nGPUs)) / step,
	}
}

// PaperLR returns the learning rate the paper used at a given GPU count,
// generalizing the Figure 6 labels (384 GPUs → 1e-4, 1536 → 6.4e-3,
// 6144 → 0.4096): LR scales with the cube of the concurrency ratio, i.e.
// LR(n) = 1e-4 · (n/384)³.
func PaperLR(gpus int) float64 {
	return 1e-4 * math.Pow(float64(gpus)/384.0, 3)
}
