package metrics

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestConfusionAndIoU(t *testing.T) {
	truth := tensor.FromSlice(tensor.Shape{1, 2, 4}, []float32{0, 0, 1, 1, 2, 2, 0, 0})
	pred := tensor.FromSlice(tensor.Shape{1, 2, 4}, []float32{0, 1, 1, 1, 2, 0, 0, 0})
	cm := NewConfusionMatrix(3)
	cm.Add(truth, pred)

	// Class 0: TP=3 (pixels 0,6,7), FN=1 (pixel 1), FP=1 (pixel 5).
	if got := cm.IoU(0); math.Abs(got-3.0/5.0) > 1e-12 {
		t.Fatalf("IoU(0) = %g", got)
	}
	// Class 1: TP=2, FN=0, FP=1.
	if got := cm.IoU(1); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Fatalf("IoU(1) = %g", got)
	}
	// Class 2: TP=1, FN=1, FP=0.
	if got := cm.IoU(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("IoU(2) = %g", got)
	}
	wantMean := (3.0/5.0 + 2.0/3.0 + 0.5) / 3
	if got := cm.MeanIoU(); math.Abs(got-wantMean) > 1e-12 {
		t.Fatalf("MeanIoU = %g want %g", got, wantMean)
	}
	if got := cm.PixelAccuracy(); math.Abs(got-6.0/8.0) > 1e-12 {
		t.Fatalf("accuracy = %g", got)
	}
	if got := cm.ClassFrequency(0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("freq(0) = %g", got)
	}
}

func TestIoUAbsentClassNaN(t *testing.T) {
	cm := NewConfusionMatrix(3)
	truth := tensor.FromSlice(tensor.Shape{1, 1, 2}, []float32{0, 0})
	pred := tensor.FromSlice(tensor.Shape{1, 1, 2}, []float32{0, 0})
	cm.Add(truth, pred)
	if !math.IsNaN(cm.IoU(2)) {
		t.Fatal("absent class should give NaN IoU")
	}
	if math.IsNaN(cm.MeanIoU()) {
		t.Fatal("MeanIoU should skip absent classes")
	}
	empty := NewConfusionMatrix(2)
	if !math.IsNaN(empty.MeanIoU()) || !math.IsNaN(empty.PixelAccuracy()) {
		t.Fatal("empty matrix should give NaN")
	}
}

func TestCollapsePenalizedByIoU(t *testing.T) {
	// The paper's point: predicting all-background gives 98.2% accuracy
	// but zero IoU for the event classes.
	cm := NewConfusionMatrix(3)
	n := 1000
	truth := tensor.New(tensor.Shape{1, 1, n})
	pred := tensor.New(tensor.Shape{1, 1, n}) // all zeros = all background
	for i := 0; i < n; i++ {
		switch {
		case i < 982:
			truth.Data()[i] = 0
		case i < 999:
			truth.Data()[i] = 2
		default:
			truth.Data()[i] = 1
		}
	}
	cm.Add(truth, pred)
	if acc := cm.PixelAccuracy(); math.Abs(acc-0.982) > 1e-9 {
		t.Fatalf("accuracy = %g", acc)
	}
	if cm.IoU(1) != 0 || cm.IoU(2) != 0 {
		t.Fatal("event-class IoU should be zero under collapse")
	}
}

func TestMerge(t *testing.T) {
	a := NewConfusionMatrix(2)
	b := NewConfusionMatrix(2)
	tr := tensor.FromSlice(tensor.Shape{1, 1, 2}, []float32{0, 1})
	pr := tensor.FromSlice(tensor.Shape{1, 1, 2}, []float32{0, 1})
	a.Add(tr, pr)
	b.Add(tr, pr)
	a.Merge(b)
	if a.Counts[0][0] != 2 || a.Counts[1][1] != 2 {
		t.Fatalf("merge wrong: %v", a.Counts)
	}
}
