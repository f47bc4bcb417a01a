package main

import (
	"math"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middles when even), 0
// when empty. xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-th quantile of xs by linear interpolation between
// order statistics. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// iqr is the distance between the first and third quartile of xs.
func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// windowRates splits a sorted series of completion instants into `windows`
// groups of equal count and returns each group's rate in completions per
// second. Window edges are completion instants rather than wall-clock
// ticks, so the rate of a window with few completions is not quantised to
// whole completions per window. A series shorter than `windows` intervals
// (a smoke run) gets one window per interval.
func windowRates(done []time.Duration, windows int) []float64 {
	n := len(done) - 1 // intervals
	if n < 1 {
		return nil
	}
	windows = min(windows, n)
	rates := make([]float64, 0, windows)
	for w := 0; w < windows; w++ {
		lo, hi := w*n/windows, (w+1)*n/windows
		if dt := (done[hi] - done[lo]).Seconds(); dt > 0 {
			rates = append(rates, float64(hi-lo)/dt)
		}
	}
	return rates
}

// rateWindows is how many equal windows a timed phase is cut into.
const rateWindows = 5

// medianRate is the throughput a phase sustained: the median of the rate
// over rateWindows equal windows, with the windows' inter-quartile distance
// beside it. Every window counts what the phase did in it, stalls included:
// a stall that recurs (a checkpoint every 50 steps, a collection, a swap)
// falls into most windows and lowers the median; a single long one lowers
// one window and widens the spread.
func medianRate(done []time.Duration) (rate, spread float64) {
	r := windowRates(done, rateWindows)
	return median(r), iqr(r)
}

// setLatency reports a phase's latencies under the two metric names given:
// the median and the 95th percentile over all its samples, with the count.
func (o *outcome) setLatency(p50, p95 string, lat []float64) {
	o.set(p50, quantile(lat, 0.50))
	o.set(p95, quantile(lat, 0.95))
	o.note(p50+".n", float64(len(lat)))
	o.note(p95+".n", float64(len(lat)))
}

// quietMS is the estimator of the isolated per-layer probes (never of an
// end-to-end metric): the first decile of repeated calls of one function,
// in milliseconds — what the call costs when nothing else ran.
func quietMS(samples []time.Duration) float64 {
	return quantile(durationsMS(samples), 0.10)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMS converts a slice of durations to milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
