// Package metrics implements the paper's evaluation measure, the
// intersection-over-union segmentation score (Section VII-D reports 59%
// for Tiramisu and 73% for DeepLabv3+).
package metrics

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// ConfusionMatrix accumulates pixel-level prediction counts; entry [t][p]
// counts pixels of true class t predicted as class p.
type ConfusionMatrix struct {
	Classes int
	Counts  [][]int64
}

// NewConfusionMatrix returns an empty matrix for n classes.
func NewConfusionMatrix(n int) *ConfusionMatrix {
	c := &ConfusionMatrix{Classes: n, Counts: make([][]int64, n)}
	for i := range c.Counts {
		c.Counts[i] = make([]int64, n)
	}
	return c
}

// Add accumulates a batch of predictions against truth (both [N,H,W] maps
// of class indices stored as float32).
func (c *ConfusionMatrix) Add(truth, pred *tensor.Tensor) {
	td, pd := truth.Data(), pred.Data()
	if len(td) != len(pd) {
		panic(fmt.Sprintf("metrics: size mismatch %d vs %d", len(td), len(pd)))
	}
	for i := range td {
		c.Counts[int(td[i])][int(pd[i])]++
	}
}

// Merge adds another matrix's counts (for multi-rank evaluation).
func (c *ConfusionMatrix) Merge(o *ConfusionMatrix) {
	for i := range c.Counts {
		for j := range c.Counts[i] {
			c.Counts[i][j] += o.Counts[i][j]
		}
	}
}

// IoU returns the intersection-over-union of one class:
// TP / (TP + FP + FN). Returns NaN when the class never appears.
func (c *ConfusionMatrix) IoU(class int) float64 {
	tp := c.Counts[class][class]
	var fp, fn int64
	for k := 0; k < c.Classes; k++ {
		if k != class {
			fp += c.Counts[k][class]
			fn += c.Counts[class][k]
		}
	}
	denom := tp + fp + fn
	if denom == 0 {
		return math.NaN()
	}
	return float64(tp) / float64(denom)
}

// MeanIoU returns the mean IoU over classes that appear.
func (c *ConfusionMatrix) MeanIoU() float64 {
	var sum float64
	n := 0
	for k := 0; k < c.Classes; k++ {
		if iou := c.IoU(k); !math.IsNaN(iou) {
			sum += iou
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// PixelAccuracy returns overall fraction of correctly classified pixels —
// the metric the paper warns is trivially 98.2% under class collapse.
func (c *ConfusionMatrix) PixelAccuracy() float64 {
	var correct, total int64
	for i := range c.Counts {
		for j, v := range c.Counts[i] {
			total += v
			if i == j {
				correct += v
			}
		}
	}
	if total == 0 {
		return math.NaN()
	}
	return float64(correct) / float64(total)
}

// ClassFrequency returns the fraction of ground-truth pixels in a class.
func (c *ConfusionMatrix) ClassFrequency(class int) float64 {
	var row, total int64
	for i := range c.Counts {
		for _, v := range c.Counts[i] {
			total += v
		}
	}
	for _, v := range c.Counts[class] {
		row += v
	}
	if total == 0 {
		return 0
	}
	return float64(row) / float64(total)
}
