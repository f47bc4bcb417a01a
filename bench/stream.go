package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/exaclim"
	"repro/internal/climate"
)

var streamWatch = workload{
	name:  "stream_watch",
	why:   "the only path through stream, storms and climate.Sequence; reuses serve as a library, so a serve change that hurts frame pacing shows here",
	run:   runStreamWatch,
	trace: traceStreamWatch,
}

const (
	frameH, frameW = 32, 48
	frameTiles     = 12   // 3 rows × 4 columns of 16×16 windows stepping by 12
	sequenceFrames = 4096 // more than any run consumes, so every run plans the same storms
	pacedFPS       = 18
)

// frameClock wraps the frame source to note when each frame was asked for
// (the instant it was due: the producer asks exactly on its schedule) and
// pairs those instants, in order, with the server's per-request
// completions. The pairing is exact while no frame is dropped.
type frameClock struct {
	src *climate.Sequence
	t0  time.Time

	mu    sync.Mutex
	asked []time.Duration
	done  []time.Duration

	// Warm-up only: cancel the run once this many frames were asked for.
	stopAfter int
	stop      context.CancelFunc
}

func (c *frameClock) Frame(t int) (*climate.Sample, error) {
	now := time.Since(c.t0)
	c.mu.Lock()
	c.asked = append(c.asked, now)
	if c.stopAfter > 0 && len(c.asked) >= c.stopAfter {
		c.stop()
	}
	c.mu.Unlock()
	return c.src.Frame(t)
}

func (c *frameClock) onStat(exaclim.ServeStat) {
	now := time.Since(c.t0)
	c.mu.Lock()
	c.done = append(c.done, now)
	c.mu.Unlock()
}

// latencies returns done[i] − asked[i] for every completed frame.
func (c *frameClock) latencies() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]time.Duration, 0, len(c.done))
	for i, d := range c.done {
		if i < len(c.asked) {
			out = append(out, d-c.asked[i])
		}
	}
	return out
}

// streamPhase is one watcher over its own clocked source.
type streamPhase struct {
	clock   *frameClock
	watcher *exaclim.StormWatcher
}

func newStreamPhase(m *exaclim.Model, seq *climate.Sequence, cfg exaclim.StreamConfig) (*streamPhase, error) {
	clock := &frameClock{src: seq, asked: make([]time.Duration, 0, 4096), done: make([]time.Duration, 0, 4096)}
	cfg.Source = clock
	w, err := exaclim.NewStormWatcher(m, cfg, tileServerOptions(exaclim.WithServeObserver(clock.onStat))...)
	if err != nil {
		return nil, err
	}
	return &streamPhase{clock: clock, watcher: w}, nil
}

// run streams for dur, then lets the watcher drain.
func (p *streamPhase) run(dur time.Duration) (*exaclim.StreamResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	p.clock.t0 = time.Now()
	return p.watcher.Run(ctx)
}

// warm streams `frames` frames — a count, not a time, so that what the
// warm-up leaves in the pools does not depend on the host's speed — and
// forgets what the clock saw. (The pipeline's own counters are cumulative; the
// checks on them hold across runs.)
func (p *streamPhase) warm(frames int) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.clock.t0 = time.Now()
	p.clock.stopAfter, p.clock.stop = frames, cancel
	_, err := p.watcher.Run(ctx)
	p.clock.mu.Lock()
	p.clock.stopAfter, p.clock.stop = 0, nil
	p.clock.asked, p.clock.done = p.clock.asked[:0], p.clock.done[:0]
	p.clock.mu.Unlock()
	return err
}

// streamSetup is the trained model, the frame sequence and the two phases'
// watchers.
type streamSetup struct {
	model    *exaclim.Model
	seq      *climate.Sequence
	saturate *streamPhase // frames as fast as the pipeline takes them: capacity
	paced    *streamPhase // a steady rate well below capacity: latency
}

func (s *streamSetup) close() {
	s.saturate.watcher.Close()
	s.paced.watcher.Close()
}

func setUpStream(e *env) (*streamSetup, error) {
	res, err := trainedTileModel(e, streamTrainSteps, "")
	if err != nil {
		return nil, err
	}
	seq, err := exaclim.SyntheticSequence(frameH, frameW, sequenceFrames, e.seed)
	if err != nil {
		return nil, err
	}
	s := &streamSetup{model: res.Model, seq: seq}
	if s.saturate, err = newStreamPhase(res.Model, seq, exaclim.StreamConfig{
		FPS: 1000, Policy: exaclim.StreamBlock, QueueDepth: 4,
	}); err != nil {
		return nil, err
	}
	// The queue holds 0.9 s of frames: the reference host stalls the guest
	// for up to half a second at a time, and a frame shed for that reason
	// would count as a failed op of the program.
	if s.paced, err = newStreamPhase(res.Model, seq, exaclim.StreamConfig{
		FPS: pacedFPS, Policy: exaclim.StreamDropOldest, QueueDepth: 16,
	}); err != nil {
		s.saturate.watcher.Close()
		return nil, err
	}
	// A watcher builds its engines on the first frames; stream a few through
	// each so that they exist before the first timed frame.
	warmFrames := 8
	if e.smoke {
		warmFrames = 2
	}
	for _, p := range []*streamPhase{s.saturate, s.paced} {
		if err := p.warm(warmFrames); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// checkStream applies the accounting checks to one phase's result.
func checkStream(o *outcome, phase string, st exaclim.StreamStats, allowDrops bool) {
	o.check(st.Produced == st.Processed+st.Dropped, "%s: produced %d != processed %d + dropped %d",
		phase, st.Produced, st.Processed, st.Dropped)
	if !allowDrops {
		o.check(st.Dropped == 0, "%s: %d frames dropped under the block policy", phase, st.Dropped)
	}
}

func runStreamWatch(e *env) (*outcome, error) {
	s, setups, err := repeatSetup(e, func(int) (*streamSetup, error) { return setUpStream(e) }, (*streamSetup).close)
	if err != nil {
		return nil, err
	}
	defer s.close()

	// Paced first, on the fresh system, for the reason traffic.run gives.
	ready := readCounters()
	paced, err := s.paced.run(e.dur(openShare))
	if err != nil {
		return nil, err
	}
	before := readCounters()
	sat, err := s.saturate.run(e.dur(closedShare))
	if err != nil {
		return nil, err
	}
	after := readCounters()

	o := newOutcome()
	checkStream(o, "saturate", sat.Stats, false)
	checkStream(o, "paced", paced.Stats, true)
	if !e.smoke {
		o.check(sat.Stats.Births+paced.Stats.Births >= 1, "no storm track was born")
	}
	frames := s.saturate.clock.done
	lat := s.paced.clock.latencies()
	if need := e.minSamples(); len(frames) < need || len(lat) < need {
		return nil, fmt.Errorf("%w: %d saturated, %d paced frames", errTooFew, len(frames), len(lat))
	}
	o.attempted = len(s.saturate.clock.asked) + len(s.paced.clock.asked)
	o.failed = int(sat.Stats.Dropped + paced.Stats.Dropped)
	rate, spread := medianRate(frames)
	o.set("setup_s", median(setups))
	o.set("ops_per_s", rate)
	o.note("ops_per_s.iqr", spread)
	o.set("tiles_per_s", rate*frameTiles)
	o.note("tiles_per_s.iqr", spread*frameTiles)
	o.set("p50_ms", median(durationsMS(lat)))
	o.note("p50_ms.n", float64(len(lat)))
	o.costPerOp(before, after, len(frames))
	o.set("mem_ready_mb", ready.liveMB())
	return o, nil
}
