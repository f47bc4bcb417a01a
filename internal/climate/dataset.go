package climate

import (
	"fmt"

	"repro/internal/tensor"
)

// Split identifies the train/test/validation partition of a sample, using
// the paper's 80/10/10 ratio.
type Split int

const (
	Train Split = iota
	Test
	Validation
)

// String names the split.
func (s Split) String() string {
	switch s {
	case Train:
		return "train"
	case Test:
		return "test"
	case Validation:
		return "validation"
	}
	return fmt.Sprintf("Split(%d)", int(s))
}

// splitOf deterministically assigns sample index i to a split with the
// 80/10/10 proportions (hashed so splits interleave through the dataset).
func splitOf(index int) Split {
	h := uint64(index) * 0x9E3779B97F4A7C15
	switch (h >> 33) % 10 {
	case 8:
		return Test
	case 9:
		return Validation
	default:
		return Train
	}
}

// Dataset is a virtual collection of generated snapshots. Samples are
// produced on demand (and are deterministic per index), so a "3.5 TB"
// dataset costs no storage until staged.
type Dataset struct {
	Cfg  GenConfig
	Size int
}

// NewDataset returns a dataset of n virtual samples.
func NewDataset(cfg GenConfig, n int) *Dataset {
	return &Dataset{Cfg: cfg, Size: n}
}

// Sample generates the i-th snapshot.
func (d *Dataset) Sample(i int) *Sample {
	if i < 0 || i >= d.Size {
		panic(fmt.Sprintf("climate: sample %d out of range [0,%d)", i, d.Size))
	}
	return Generate(d.Cfg, i)
}

// SampleBytes returns the on-disk size of one encoded sample: 16 channels
// of float32 plus one label plane.
func (d *Dataset) SampleBytes() int {
	return (NumChannels + 1) * d.Cfg.Height * d.Cfg.Width * 4
}

// Indices returns the sample indices belonging to a split.
func (d *Dataset) Indices(s Split) []int {
	var out []int
	for i := 0; i < d.Size; i++ {
		if splitOf(i) == s {
			out = append(out, i)
		}
	}
	return out
}

// ClassFrequencies measures the pixel-class distribution over the first n
// samples (n ≤ Size), returning frequencies that sum to 1. This feeds the
// loss-weighting calculation (paper Section V-B1).
func (d *Dataset) ClassFrequencies(n int) []float64 {
	if n > d.Size {
		n = d.Size
	}
	counts := make([]int64, NumClasses)
	var total int64
	for i := 0; i < n; i++ {
		s := d.Sample(i)
		for _, v := range s.Labels.Data() {
			counts[int(v)]++
			total++
		}
	}
	out := make([]float64, NumClasses)
	for c := range out {
		out[c] = float64(counts[c]) / float64(total)
	}
	return out
}

// SelectChannels returns a new field tensor keeping only the given
// channels — the paper's Piz Daint experiments used a 4-channel subset
// before Summit's capacity allowed all 16.
func SelectChannels(fields *tensor.Tensor, channels []int) *tensor.Tensor {
	s := fields.Shape()
	h, w := s[1], s[2]
	out := tensor.New(tensor.Shape{len(channels), h, w})
	for i, c := range channels {
		if c < 0 || c >= s[0] {
			panic(fmt.Sprintf("climate: channel %d out of range", c))
		}
		copy(out.Data()[i*h*w:(i+1)*h*w], fields.Data()[c*h*w:(c+1)*h*w])
	}
	return out
}

// PizDaintChannels is the 4-variable subset used in the early experiments:
// moisture, pressure and the two 850 hPa wind components.
var PizDaintChannels = []int{ChTMQ, ChPSL, ChU850, ChV850}
