package exaclim

import (
	"fmt"
	"io"
)

// StepStat is one training step's record from rank 0's perspective.
type StepStat struct {
	Step        int
	Loss        float64 // mean loss across ranks
	VirtualTime float64 // rank-0 virtual clock at step end
	Skipped     bool    // FP16 overflow skip
	Last        bool    // final step of the configured run

	// OverlapFrac is the fraction of this step's gradient-exchange buckets
	// that were already reduced when the backward pass finished —
	// communication hidden behind compute. Zero under WithChurnPolicy's
	// EASGD mode, which has no per-step exchange.
	OverlapFrac float64

	// PoolAllocs and PoolReuses are rank 0's cumulative workspace counters
	// (buffer requests that allocated fresh memory vs. were served from the
	// pool). A healthy run shows PoolReuses growing every step while
	// PoolAllocs plateaus after warmup.
	PoolAllocs uint64
	PoolReuses uint64
}

// ValStat is one mid-training validation record (the paper's per-epoch
// validation pass, Section VI).
type ValStat struct {
	Step     int
	MeanIoU  float64
	Accuracy float64
}

// Observer streams training progress as it happens, instead of post-hoc
// slicing Result.History. Callbacks run synchronously on rank 0's training
// goroutine in step order; they should return quickly and must not call
// back into the running Experiment.
type Observer interface {
	// OnStep is called after every training step.
	OnStep(StepStat)
	// OnValidation is called after every mid-training validation pass
	// (requires WithValidationEvery).
	OnValidation(ValStat)
}

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are skipped.
type ObserverFuncs struct {
	Step       func(StepStat)
	Validation func(ValStat)
}

// OnStep implements Observer.
func (o ObserverFuncs) OnStep(s StepStat) {
	if o.Step != nil {
		o.Step(s)
	}
}

// OnValidation implements Observer.
func (o ObserverFuncs) OnValidation(v ValStat) {
	if o.Validation != nil {
		o.Validation(v)
	}
}

// progressLogger prints a line every N steps with the raw and smoothed
// loss, maintaining its own moving window (the paper's Fig 6 uses 10).
type progressLogger struct {
	w      io.Writer
	every  int
	window []float64
}

// NewProgressLogger returns an Observer that writes a progress line to w
// every `every` steps and for every validation pass.
func NewProgressLogger(w io.Writer, every int) Observer {
	if every < 1 {
		every = 1
	}
	return &progressLogger{w: w, every: every}
}

// OnStep implements Observer.
func (p *progressLogger) OnStep(s StepStat) {
	p.window = append(p.window, s.Loss)
	if len(p.window) > 10 {
		p.window = p.window[1:]
	}
	if s.Step%p.every != 0 && !s.Last {
		return
	}
	var sm float64
	for _, l := range p.window {
		sm += l
	}
	sm /= float64(len(p.window))
	fmt.Fprintf(p.w, "  step %3d  t=%6.1fs  loss %8.4f  (smoothed %8.4f)\n",
		s.Step, s.VirtualTime, s.Loss, sm)
}

// OnValidation implements Observer.
func (p *progressLogger) OnValidation(v ValStat) {
	fmt.Fprintf(p.w, "  step %3d  validation: mean IoU %.3f, accuracy %.3f\n",
		v.Step, v.MeanIoU, v.Accuracy)
}
