// Package stream is the live storm-analytics pipeline — the operational
// scenario the paper's introduction motivates, run continuously instead of
// over stored snapshots. A rate-controlled producer draws timesteps from a
// climate source, a bounded frame queue absorbs (or sheds) bursts, and a
// consumer drives each frame through the tiled-inference server, extracts
// storm detections from the predicted mask, and advances the online tracker
// (internal/storms.Tracker), emitting birth/death/merge events, latency and
// lifetime histograms, active-storm gauges, and periodic visualization
// snapshots as it goes.
//
// Backpressure is explicit: when frames arrive faster than the server
// segments them the queue fills, and the configured policy decides what
// gives — PolicyBlock stalls the producer (the source falls behind wall
// clock), PolicyDropOldest sheds the stalest queued frame (the tracker
// links across the gap), and PolicyDegrade keeps every frame but sheds
// compute along a two-rung ladder: at DegradeAt occupancy it raises the
// serving stack's early-exit threshold (SegmentOpts.ExitBoost — more
// background tiles skip the deep decoder, losing at most faint marginal
// detections), and only at the higher CoarsenAt occupancy does it coarsen
// the tile stride (overlap 0), the rung that visibly costs mask border
// quality. Against a server without early exit the first rung is a no-op
// and the ladder behaves like the historical single-rung policy.
package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"time"

	"repro/internal/climate"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/storms"
	"repro/internal/tensor"
	"repro/internal/viz"
)

// Policy selects what happens when the frame queue is full.
type Policy int

// The backpressure policies.
const (
	// PolicyBlock stalls the producer until the consumer catches up: no
	// frame is lost, the stream falls behind real time.
	PolicyBlock Policy = iota
	// PolicyDropOldest sheds the stalest queued frame to admit the new
	// one: the stream stays current, the tracker links across the gaps.
	PolicyDropOldest
	// PolicyDegrade blocks like PolicyBlock but makes frames cheaper while
	// the queue is under pressure: at Config.DegradeAt occupancy it boosts
	// the server's early-exit threshold, at Config.CoarsenAt it also
	// coarsens the tile stride (overlap 0), until pressure clears.
	PolicyDegrade
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyDegrade:
		return "degrade"
	}
	return "unknown"
}

// ParsePolicy parses a policy name as spelled by String.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return PolicyBlock, nil
	case "drop-oldest":
		return PolicyDropOldest, nil
	case "degrade":
		return PolicyDegrade, nil
	}
	return 0, fmt.Errorf("stream: unknown policy %q (want block, drop-oldest, or degrade)", s)
}

// Profile shapes the producer's frame rate over time.
type Profile int

// The load profiles.
const (
	// ProfileSteady produces at a constant FPS.
	ProfileSteady Profile = iota
	// ProfileDiurnal modulates FPS with a half-sine burst cycle — calm
	// troughs at the base rate, peaks at BurstFactor times it — the
	// day/night load swing an operational deployment sees.
	ProfileDiurnal
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case ProfileSteady:
		return "steady"
	case ProfileDiurnal:
		return "diurnal"
	}
	return "unknown"
}

// ParseProfile parses a profile name as spelled by String.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "steady":
		return ProfileSteady, nil
	case "diurnal":
		return ProfileDiurnal, nil
	}
	return 0, fmt.Errorf("stream: unknown profile %q (want steady or diurnal)", s)
}

// Source yields timestep samples; *climate.Sequence satisfies it.
type Source interface {
	Frame(t int) (*climate.Sample, error)
}

// Segmenter turns a [C, H, W] field tensor into an [H, W] class mask;
// *serve.Server satisfies it.
type Segmenter interface {
	SegmentWith(ctx context.Context, fields *tensor.Tensor, opts serve.SegmentOpts) (*tensor.Tensor, serve.RequestStat, error)
}

// Event is one tracker transition, emitted to Config.OnEvent and, as one
// JSON object per line, to Config.EventWriter.
type Event struct {
	Frame int     `json:"frame"`
	Type  string  `json:"type"`  // birth, death, or merge
	Class string  `json:"class"` // TC or AR
	Y     float64 `json:"y"`
	X     float64 `json:"x"` // unwrapped; may exceed the grid width
	Wind  float64 `json:"wind,omitempty"`
	Life  int     `json:"life,omitempty"` // death/merge: frames the track lived
}

// Config parameterizes a Pipeline.
type Config struct {
	// Source provides the timesteps (required).
	Source Source
	// FPS is the base production rate in frames per second (default 8).
	FPS float64
	// MaxFrames bounds the run; 0 streams until the context is cancelled.
	MaxFrames int
	// Profile shapes the rate over time (default ProfileSteady).
	Profile Profile
	// BurstFactor is the diurnal peak rate as a multiple of FPS
	// (default 4).
	BurstFactor float64
	// BurstPeriod is the diurnal cycle length in stream time (default 10s).
	BurstPeriod time.Duration
	// QueueDepth bounds the frame queue (default 4).
	QueueDepth int
	// Policy picks the full-queue behavior (default PolicyBlock).
	Policy Policy
	// DegradeAt is the queue-occupancy fraction at which PolicyDegrade
	// engages its first rung, boosting the server's early-exit threshold
	// (default 0.5).
	DegradeAt float64
	// ExitBoost is the threshold multiplier of the first rung (default
	// 1.5; must be ≥ 1). Ignored by servers without early exit.
	ExitBoost float64
	// CoarsenAt is the occupancy fraction of the second rung, coarsening
	// the tile stride (default halfway between DegradeAt and 1; must be in
	// [DegradeAt, 1]).
	CoarsenAt float64
	// MinPixels drops mask components smaller than this (default 4).
	MinPixels int
	// MaxDist is the tracker association radius in grid cells (default
	// height/5, matching the batch census tooling).
	MaxDist float64
	// OnEvent, when non-nil, receives every tracker event from the
	// consumer goroutine.
	OnEvent func(Event)
	// EventWriter, when non-nil, receives events as JSON lines. It is
	// used only from the consumer goroutine.
	EventWriter io.Writer
	// VizEvery saves an overlay PNG every n-th processed frame into
	// VizDir (0 disables).
	VizEvery int
	// VizDir is the directory for VizEvery snapshots.
	VizDir string
}

func (c Config) withDefaults() Config {
	if c.FPS == 0 {
		c.FPS = 8
	}
	if c.BurstFactor == 0 {
		c.BurstFactor = 4
	}
	if c.BurstPeriod == 0 {
		c.BurstPeriod = 10 * time.Second
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4
	}
	if c.DegradeAt == 0 {
		c.DegradeAt = 0.5
	}
	if c.ExitBoost == 0 {
		c.ExitBoost = 1.5
	}
	if c.CoarsenAt == 0 {
		c.CoarsenAt = (c.DegradeAt + 1) / 2
	}
	if c.MinPixels == 0 {
		c.MinPixels = 4
	}
	return c
}

func (c Config) validate() error {
	if c.Source == nil {
		return errors.New("stream: Config.Source is required")
	}
	if c.FPS < 0 || math.IsNaN(c.FPS) {
		return fmt.Errorf("stream: FPS %v must be > 0", c.FPS)
	}
	if c.MaxFrames < 0 {
		return fmt.Errorf("stream: MaxFrames %d must be ≥ 0", c.MaxFrames)
	}
	if c.BurstFactor < 1 {
		return fmt.Errorf("stream: BurstFactor %v must be ≥ 1", c.BurstFactor)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("stream: QueueDepth %d must be ≥ 1", c.QueueDepth)
	}
	if c.DegradeAt < 0 || c.DegradeAt > 1 {
		return fmt.Errorf("stream: DegradeAt %v outside [0,1]", c.DegradeAt)
	}
	if c.ExitBoost < 1 || math.IsNaN(c.ExitBoost) {
		return fmt.Errorf("stream: ExitBoost %v must be ≥ 1", c.ExitBoost)
	}
	if c.CoarsenAt < c.DegradeAt || c.CoarsenAt > 1 {
		return fmt.Errorf("stream: CoarsenAt %v outside [DegradeAt, 1]", c.CoarsenAt)
	}
	if c.MaxDist < 0 {
		return fmt.Errorf("stream: MaxDist %v must be ≥ 0", c.MaxDist)
	}
	return nil
}

// Stats is the pipeline's cumulative accounting, snapshotted into Result.
type Stats struct {
	Produced  uint64 // frames drawn from the source
	Processed uint64 // frames segmented and tracked
	Dropped   uint64 // frames shed by PolicyDropOldest
	Boosted   uint64 // frames served with a boosted exit threshold
	Degraded  uint64 // frames segmented at coarsened stride

	Births, Deaths, Merges uint64

	ActiveTC, ActiveAR         int64 // open tracks at the end of the run
	PeakActiveTC, PeakActiveAR int64

	// End-to-end frame latency (source → tracker), successful frames.
	LatencyP50, LatencyP95, LatencyP99 time.Duration

	// Track lifetimes in frames, observed at track death.
	LifetimeMean, LifetimeP95 float64

	Elapsed      time.Duration
	EffectiveFPS float64 // Processed / Elapsed
}

// Result is what a completed run returns: final stats plus every track the
// run observed, in the batch reporting order (longest, then earliest).
type Result struct {
	Stats  Stats
	Tracks []*storms.Track
}

// frameItem is one queued timestep.
type frameItem struct {
	idx    int
	sample *climate.Sample
	at     time.Time // production time; latency is measured from here
}

// Pipeline is one streaming run: construct with New, drive with Run.
type Pipeline struct {
	seg Segmenter
	cfg Config

	dropped   metrics.Counter
	boosted   metrics.Counter
	degraded  metrics.Counter
	depth     metrics.Gauge // queued frames
	activeTC  metrics.Gauge
	activeAR  metrics.Gauge
	latency   *metrics.Histogram
	lifetimes *metrics.Histogram

	produced  uint64
	processed uint64
	births    uint64
	deaths    uint64
	merges    uint64
}

// New validates the configuration and builds a pipeline over the segmenter.
func New(seg Segmenter, cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if seg == nil {
		return nil, errors.New("stream: segmenter is required")
	}
	return &Pipeline{
		seg:       seg,
		cfg:       cfg,
		latency:   metrics.NewHistogram(),
		lifetimes: metrics.NewHistogram(),
	}, nil
}

// QueueDepth returns the current and peak number of queued frames — the
// live pressure reading.
func (p *Pipeline) QueueDepth() (cur, peak int) {
	return int(p.depth.Value()), int(p.depth.Peak())
}

// Dropped returns the frames shed so far by PolicyDropOldest.
func (p *Pipeline) Dropped() uint64 { return p.dropped.Value() }

// Boosted returns the frames served with a boosted exit threshold so far.
func (p *Pipeline) Boosted() uint64 { return p.boosted.Value() }

// Degraded returns the frames segmented at coarsened stride so far.
func (p *Pipeline) Degraded() uint64 { return p.degraded.Value() }

// rate is the target production rate before frame i: the base FPS shaped by
// the load profile. The diurnal phase advances in stream time (frame index
// over base FPS), so the burst cycle is deterministic in the frame index.
func (p *Pipeline) rate(i int) float64 {
	if p.cfg.Profile != ProfileDiurnal {
		return p.cfg.FPS
	}
	phase := 2 * math.Pi * (float64(i) / p.cfg.FPS) / p.cfg.BurstPeriod.Seconds()
	burst := math.Max(0, math.Sin(phase))
	return p.cfg.FPS * (1 + (p.cfg.BurstFactor-1)*burst)
}

// Run streams frames until the source is exhausted (MaxFrames) or ctx is
// cancelled, then drains: every frame already admitted to the queue is
// still segmented and tracked before Run returns, so the tracker's final
// state accounts for all accepted work. The first source or segmentation
// error aborts the run (context cancellation is not an error).
func (p *Pipeline) Run(ctx context.Context) (*Result, error) {
	start := time.Now()
	queue := make(chan frameItem, p.cfg.QueueDepth)
	prodErr := make(chan error, 1)
	go func() {
		prodErr <- p.produce(ctx, queue)
		close(queue)
	}()

	// The drain contract: admitted frames are always fully processed, so
	// segmentation must survive the run context's cancellation.
	segCtx := context.WithoutCancel(ctx)
	var tracker *storms.Tracker
	var runErr error
	for item := range queue {
		p.depth.Add(-1)
		if runErr != nil {
			continue // drain without processing after a hard failure
		}
		if tracker == nil {
			fs := item.sample.Fields.Shape()
			maxDist := p.cfg.MaxDist
			if maxDist == 0 {
				maxDist = float64(fs[1]) / 5
			}
			tracker = storms.NewTracker(fs[2], maxDist)
		}
		if err := p.process(segCtx, tracker, item); err != nil {
			runErr = err
		}
	}
	if err := <-prodErr; err != nil && runErr == nil {
		runErr = err
	}

	res := &Result{Stats: p.snapshot(time.Since(start))}
	if tracker != nil {
		res.Tracks = tracker.Finish()
	}
	return res, runErr
}

// produce paces the source and feeds the queue under the configured policy
// (it both sends and, under PolicyDropOldest, receives to shed).
func (p *Pipeline) produce(ctx context.Context, queue chan frameItem) error {
	// One timer, Reset per frame. Timer channels are unbuffered as of
	// go 1.23: Reset discards a tick nobody received, so there is nothing
	// to drain — not even the one this zero duration fires at once.
	timer := time.NewTimer(0)
	defer timer.Stop()
	next := time.Now()
	for i := 0; p.cfg.MaxFrames == 0 || i < p.cfg.MaxFrames; i++ {
		if wait := time.Until(next); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				return nil
			}
		} else if ctx.Err() != nil {
			return nil
		}
		// No catch-up bursts: a producer stalled by backpressure resumes
		// at the target rate rather than flooding the queue.
		now := time.Now()
		if next.Before(now) {
			next = now
		}
		next = next.Add(time.Duration(float64(time.Second) / p.rate(i)))

		sample, err := p.cfg.Source.Frame(i)
		if err != nil {
			return fmt.Errorf("stream: source frame %d: %w", i, err)
		}
		item := frameItem{idx: i, sample: sample, at: time.Now()}
		p.produced++
		if p.cfg.Policy == PolicyDropOldest {
			for {
				select {
				case queue <- item:
				default:
					// Queue full: shed the stalest frame and retry. The
					// consumer may race us to it; either way the new frame
					// is admitted on the next loop.
					select {
					case <-queue:
						p.depth.Add(-1)
						p.dropped.Inc()
					default:
					}
					continue
				}
				break
			}
			p.depth.Add(1)
			continue
		}
		select {
		case queue <- item:
			p.depth.Add(1)
		case <-ctx.Done():
			p.produced--
			return nil
		}
	}
	return nil
}

// process runs one frame through segmentation, extraction, and tracking.
func (p *Pipeline) process(ctx context.Context, tracker *storms.Tracker, item frameItem) error {
	opts := serve.SegmentOpts{Overlap: -1}
	if p.cfg.Policy == PolicyDegrade {
		occ := float64(p.depth.Value()) / float64(p.cfg.QueueDepth)
		if occ >= p.cfg.DegradeAt {
			// First rung: more background tiles exit early. Harmless to
			// servers without early exit (the boost multiplies a threshold
			// that is never consulted).
			opts.ExitBoost = p.cfg.ExitBoost
			p.boosted.Inc()
		}
		if occ >= p.cfg.CoarsenAt {
			// Second rung: coarsen the stride — cheaper tiles at a visible
			// border-quality cost, so it engages only deeper into overload.
			opts.Overlap = 0
			p.degraded.Inc()
		}
	}
	mask, _, err := p.seg.SegmentWith(ctx, item.sample.Fields, opts)
	if err != nil {
		return fmt.Errorf("stream: segment frame %d: %w", item.idx, err)
	}
	tcs := storms.Extract(item.sample.Fields, mask, climate.ClassTC, p.cfg.MinPixels)
	ars := storms.Extract(item.sample.Fields, mask, climate.ClassAR, p.cfg.MinPixels)
	delta := tracker.Advance(item.idx, append(tcs, ars...))

	p.processed++
	p.latency.Observe(time.Since(item.at).Seconds())
	p.births += uint64(len(delta.Births))
	p.deaths += uint64(len(delta.Deaths))
	p.merges += uint64(len(delta.Merges))
	p.activeTC.Add(int64(tracker.ActiveByClass(climate.ClassTC)) - p.activeTC.Value())
	p.activeAR.Add(int64(tracker.ActiveByClass(climate.ClassAR)) - p.activeAR.Value())
	for _, tr := range delta.Deaths {
		p.lifetimes.Observe(float64(tr.Duration()))
	}
	if err := p.emit(delta); err != nil {
		return err
	}
	if p.cfg.VizEvery > 0 && item.idx%p.cfg.VizEvery == 0 {
		if err := p.saveSnapshot(item, mask, tracker); err != nil {
			return err
		}
	}
	return nil
}

// emit fans one frame's tracker delta out to the event callback and the
// JSONL writer.
func (p *Pipeline) emit(delta storms.FrameDelta) error {
	if p.cfg.OnEvent == nil && p.cfg.EventWriter == nil {
		return nil
	}
	send := func(e Event) error {
		if p.cfg.OnEvent != nil {
			p.cfg.OnEvent(e)
		}
		if p.cfg.EventWriter != nil {
			line, err := json.Marshal(e)
			if err != nil {
				return err
			}
			if _, err := p.cfg.EventWriter.Write(append(line, '\n')); err != nil {
				return fmt.Errorf("stream: event write: %w", err)
			}
		}
		return nil
	}
	at := func(tr *storms.Track) (y, x float64) {
		c := tr.Centroids[len(tr.Centroids)-1]
		return c[0], c[1]
	}
	for _, tr := range delta.Births {
		y, x := at(tr)
		if err := send(Event{Frame: delta.Frame, Type: storms.EventBirth.String(), Class: className(tr.Class), Y: y, X: x, Wind: tr.PeakWind()}); err != nil {
			return err
		}
	}
	for _, tr := range delta.Deaths {
		y, x := at(tr)
		if err := send(Event{Frame: delta.Frame, Type: storms.EventDeath.String(), Class: className(tr.Class), Y: y, X: x, Wind: tr.PeakWind(), Life: tr.Duration()}); err != nil {
			return err
		}
	}
	for _, m := range delta.Merges {
		y, x := at(m.Into)
		if err := send(Event{Frame: delta.Frame, Type: storms.EventMerge.String(), Class: className(m.Into.Class), Y: y, X: x, Wind: m.Into.PeakWind(), Life: m.Died.Duration()}); err != nil {
			return err
		}
	}
	return nil
}

// saveSnapshot renders the frame's IWV field with the predicted mask and
// the active tracks' trajectories, into VizDir.
func (p *Pipeline) saveSnapshot(item frameItem, mask *tensor.Tensor, tracker *storms.Tracker) error {
	fs := item.sample.Fields.Shape()
	h, w := fs[1], fs[2]
	iwv := tensor.New(tensor.Shape{h, w})
	copy(iwv.Data(), item.sample.Fields.Data()[climate.ChTMQ*h*w:(climate.ChTMQ+1)*h*w])
	img, err := viz.Overlay(iwv, mask, 0.6)
	if err != nil {
		return fmt.Errorf("stream: viz frame %d: %w", item.idx, err)
	}
	for _, tr := range tracker.Active() {
		viz.DrawTrack(img, tr.Centroids, tr.Class)
	}
	path := filepath.Join(p.cfg.VizDir, fmt.Sprintf("frame_%05d.png", item.idx))
	if err := viz.SavePNG(path, img); err != nil {
		return fmt.Errorf("stream: viz frame %d: %w", item.idx, err)
	}
	return nil
}

// snapshot folds the instruments into a Stats value.
func (p *Pipeline) snapshot(elapsed time.Duration) Stats {
	st := Stats{
		Produced:     p.produced,
		Processed:    p.processed,
		Dropped:      p.dropped.Value(),
		Boosted:      p.boosted.Value(),
		Degraded:     p.degraded.Value(),
		Births:       p.births,
		Deaths:       p.deaths,
		Merges:       p.merges,
		ActiveTC:     p.activeTC.Value(),
		ActiveAR:     p.activeAR.Value(),
		PeakActiveTC: p.activeTC.Peak(),
		PeakActiveAR: p.activeAR.Peak(),
		LatencyP50:   time.Duration(p.latency.Quantile(0.50) * float64(time.Second)),
		LatencyP95:   time.Duration(p.latency.Quantile(0.95) * float64(time.Second)),
		LatencyP99:   time.Duration(p.latency.Quantile(0.99) * float64(time.Second)),
		LifetimeMean: p.lifetimes.Mean(),
		LifetimeP95:  p.lifetimes.Quantile(0.95),
		Elapsed:      elapsed,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		st.EffectiveFPS = float64(st.Processed) / sec
	}
	return st
}

func className(class int) string {
	if class == climate.ClassAR {
		return "AR"
	}
	return "TC"
}
