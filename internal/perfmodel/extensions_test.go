package perfmodel_test

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/perfmodel"
)

func TestStrongScalingDecaysFasterThanWeak(t *testing.T) {
	s := summitDeepLabFP16(t, 1)
	const globalBatch = 2048
	weak1k := s.At(1024).Efficiency
	strong1k := s.StrongScalingAt(1024, globalBatch).Efficiency
	strong8k := s.StrongScalingAt(8192, globalBatch).Efficiency
	t.Logf("1024 GPUs: weak %.1f%%, strong %.1f%%; 8192 GPUs strong: %.1f%%",
		weak1k*100, strong1k*100, strong8k*100)
	if strong1k > weak1k {
		t.Fatal("strong scaling cannot beat weak scaling")
	}
	if strong8k >= strong1k {
		t.Fatal("strong-scaling efficiency must fall as per-GPU work shrinks")
	}
	// At batch = GPUs (one sample per GPU and shrinking no further),
	// throughput still grows sublinearly past the comm floor.
	p1 := s.StrongScalingAt(1024, globalBatch)
	p2 := s.StrongScalingAt(4096, globalBatch)
	if p2.ImagesPerS <= p1.ImagesPerS {
		t.Fatal("strong scaling should still speed up in this range")
	}
}

func TestPaperLRMatchesFig6Labels(t *testing.T) {
	cases := map[int]float64{384: 0.0001, 1536: 0.0064, 6144: 0.4096}
	for gpus, want := range cases {
		got := perfmodel.PaperLR(gpus)
		if math.Abs(got-want)/want > 1e-9 {
			t.Fatalf("PaperLR(%d) = %g want %g", gpus, got, want)
		}
	}
	// Monotone in concurrency.
	if perfmodel.PaperLR(768) <= perfmodel.PaperLR(384) {
		t.Fatal("LR must grow with concurrency")
	}
}

func TestStrongScalingMatchesWeakAtReferenceBatch(t *testing.T) {
	// When the global batch equals n × per-GPU reference batch, strong
	// scaling degenerates to weak scaling.
	s := summitDeepLabFP16(t, 1)
	n := 1536
	global := n * s.Analysis.BatchSize
	weak := s.At(n)
	strong := s.StrongScalingAt(n, global)
	if math.Abs(weak.ImagesPerS-strong.ImagesPerS)/weak.ImagesPerS > 1e-9 {
		t.Fatalf("weak %g vs strong-at-reference %g images/s",
			weak.ImagesPerS, strong.ImagesPerS)
	}
}

func TestKernelEffDefaultsToUnity(t *testing.T) {
	// A GPU struct with zero KernelEff (hand-constructed) must behave as 1.
	g := perfmodel.GPU{Name: "x", PeakFP32: 1e12, PeakFP16: 2e12, MemBW: 1e11}
	a := analysisFor(t, "tiramisu", graph.FP32, 1, 16)
	if perfmodel.StepSeconds(a, g, graph.FP32) <= 0 {
		t.Fatal("zero KernelEff should default, not divide by zero")
	}
}
