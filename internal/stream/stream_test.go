package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/climate"
	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/storms"
	"repro/internal/tensor"
)

// oracleSegmenter stands in for the inference server: it reproduces the
// generator's own heuristic labels (so detections are perfect) after an
// artificial service delay, and records how requests were degraded. A
// non-nil gate holds every request until it is closed (see gatedSource).
type oracleSegmenter struct {
	delay    time.Duration
	gate     chan struct{}
	requests atomic.Int64
	degraded atomic.Int64
	boosted  atomic.Int64
}

func (o *oracleSegmenter) SegmentWith(ctx context.Context, fields *tensor.Tensor, opts serve.SegmentOpts) (*tensor.Tensor, serve.RequestStat, error) {
	if err := ctx.Err(); err != nil {
		return nil, serve.RequestStat{}, err
	}
	if o.gate != nil {
		select {
		case <-o.gate:
		case <-time.After(10 * time.Second):
			// A gate that never opens fails the caller's assertions
			// instead of hanging the test.
		}
	}
	if o.delay > 0 {
		time.Sleep(o.delay)
	}
	o.requests.Add(1)
	if opts.Overlap == 0 {
		o.degraded.Add(1)
	}
	if opts.ExitBoost > 0 {
		o.boosted.Add(1)
	}
	return climate.Label(fields), serve.RequestStat{Tiles: 1}, nil
}

// gatedSource counts the frames the producer fetches and opens the
// segmenter's gate when it fetches the openAt-th. The consumer is then held
// on its first frame until the producer has got openAt−2 frames past it, so
// the queue overloads however fast or slow the host makes either side.
type gatedSource struct {
	Source
	openAt  int64
	fetched atomic.Int64
	gate    chan struct{}
}

func (s *gatedSource) Frame(t int) (*climate.Sample, error) {
	if s.fetched.Add(1) == s.openAt {
		close(s.gate)
	}
	return s.Source.Frame(t)
}

// overloaded returns src behind a gatedSource opening at openAt and an
// oracle segmenter with the given delay held by its gate.
func overloaded(src Source, openAt int, delay time.Duration) (Source, *oracleSegmenter) {
	gate := make(chan struct{})
	return &gatedSource{Source: src, openAt: int64(openAt), gate: gate},
		&oracleSegmenter{delay: delay, gate: gate}
}

func testSequence(t *testing.T, frames int, seed int64) *climate.Sequence {
	t.Helper()
	seq, err := climate.NewSequence(climate.DefaultGenConfig(64, 96, seed), frames)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestPipelineMatchesBatchLinkTracks(t *testing.T) {
	// The tentpole acceptance criterion: a streamed run over a sequence
	// must produce exactly the tracks batch LinkTracks reports on the same
	// frames. PolicyBlock guarantees no frame is lost, and the oracle
	// segmenter reproduces the stored labels, so output must be equal.
	const n = 12
	seq := testSequence(t, n, 51)
	p, err := New(&oracleSegmenter{}, Config{
		Source:    seq,
		FPS:       500, // overload: pacing must not matter for correctness
		MaxFrames: n,
		Policy:    PolicyBlock,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Produced != n || res.Stats.Processed != n || res.Stats.Dropped != 0 {
		t.Fatalf("block policy lost frames: %+v", res.Stats)
	}

	var frames [][]*storms.Storm
	for f := 0; f < n; f++ {
		s, err := seq.Frame(f)
		if err != nil {
			t.Fatal(err)
		}
		tcs, ars := storms.ExtractAll(s, 4)
		frames = append(frames, append(tcs, ars...))
	}
	want := storms.LinkTracks(frames, 96, 64.0/5)
	if len(res.Tracks) != len(want) {
		t.Fatalf("streamed %d tracks, batch %d", len(res.Tracks), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(res.Tracks[i], want[i]) {
			t.Errorf("track %d differs:\n stream %+v\n batch  %+v", i, res.Tracks[i], want[i])
		}
	}
	if res.Stats.Births == 0 || res.Stats.LatencyP99 <= 0 {
		t.Errorf("implausible stats %+v", res.Stats)
	}
}

func TestPipelineDropOldestShedsUnderOverload(t *testing.T) {
	// A source far faster than the consumer with a tiny queue: the policy
	// must shed frames (observable in the counter), never deadlock, and
	// account for every produced frame as processed or dropped. The
	// consumer is held until the producer has fetched frame depth+2: one
	// frame in the consumer and depth in the queue leave no room for
	// frame depth+1, so the overload is certain.
	const n, depth = 40, 2
	src, seg := overloaded(testSequence(t, n, 53), depth+3, 3*time.Millisecond)
	p, err := New(seg, Config{
		Source:     src,
		FPS:        2000,
		MaxFrames:  n,
		Policy:     PolicyDropOldest,
		QueueDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Produced != n {
		t.Fatalf("produced %d frames, want %d", st.Produced, n)
	}
	if st.Dropped == 0 {
		t.Error("overloaded drop-oldest run shed nothing; backpressure never engaged")
	}
	if st.Processed+st.Dropped != st.Produced {
		t.Errorf("accounting leak: processed %d + dropped %d != produced %d", st.Processed, st.Dropped, st.Produced)
	}
	if cur, _ := p.QueueDepth(); cur != 0 {
		t.Errorf("queue depth %d after Run, want 0", cur)
	}
}

func TestPipelineDegradeEngagesUnderPressure(t *testing.T) {
	// PolicyDegrade keeps every frame but must coarsen some once the queue
	// passes the pressure threshold. The consumer is held until the
	// producer has fetched frame depth+1, which it does only once frames
	// 1..depth fill the queue.
	const n, depth = 30, 4
	src, seg := overloaded(testSequence(t, n, 57), depth+2, 3*time.Millisecond)
	p, err := New(seg, Config{
		Source:     src,
		FPS:        2000,
		MaxFrames:  n,
		Policy:     PolicyDegrade,
		QueueDepth: depth,
		DegradeAt:  0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Produced != n || st.Processed != n || st.Dropped != 0 {
		t.Fatalf("degrade policy must keep every frame: %+v", st)
	}
	if st.Degraded == 0 {
		t.Error("overloaded degrade run never coarsened; pressure threshold never hit")
	}
	if got := uint64(seg.degraded.Load()); got != st.Degraded {
		t.Errorf("segmenter saw %d degraded requests, stats say %d", got, st.Degraded)
	}
}

func TestPipelineDegradeLaddersBoostBeforeCoarsen(t *testing.T) {
	// The two-rung ladder: exit-threshold boosting (invisible tiling, only
	// marginal background tiles exit earlier) must engage at DegradeAt,
	// below the CoarsenAt rung that widens the tile stride. Any frame
	// coarsened was therefore also boosted. The consumer is held until the
	// queue has filled, as in TestPipelineDegradeEngagesUnderPressure.
	const n, depth = 30, 4
	src, seg := overloaded(testSequence(t, n, 67), depth+2, 3*time.Millisecond)
	p, err := New(seg, Config{
		Source:     src,
		FPS:        2000,
		MaxFrames:  n,
		Policy:     PolicyDegrade,
		QueueDepth: depth,
		DegradeAt:  0.25,
		ExitBoost:  2,
		CoarsenAt:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Processed != n || st.Dropped != 0 {
		t.Fatalf("degrade policy must keep every frame: %+v", st)
	}
	if st.Boosted == 0 {
		t.Error("overloaded run never boosted the exit threshold; first rung never engaged")
	}
	if st.Boosted < st.Degraded {
		t.Errorf("coarsened %d frames but boosted only %d; coarsening must imply boosting", st.Degraded, st.Boosted)
	}
	if got := uint64(seg.boosted.Load()); got != st.Boosted {
		t.Errorf("segmenter saw %d boosted requests, stats say %d", got, st.Boosted)
	}
}

func TestPipelineGracefulDrainOnCancel(t *testing.T) {
	// An unbounded run cancelled mid-stream: production stops, every
	// admitted frame is still processed, and Run returns without error.
	seq := testSequence(t, 10_000, 59)
	events := make(chan Event, 1024)
	p, err := New(&oracleSegmenter{delay: time.Millisecond}, Config{
		Source:  seq,
		FPS:     300,
		Policy:  PolicyBlock,
		OnEvent: func(e Event) { events <- e },
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	res, err := p.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Produced == 0 {
		t.Fatal("nothing streamed before cancellation")
	}
	if st.Processed != st.Produced {
		t.Errorf("drain incomplete: processed %d of %d produced", st.Processed, st.Produced)
	}
	close(events)
	var births uint64
	for e := range events {
		if e.Type == "birth" {
			births++
		}
	}
	if births != st.Births {
		t.Errorf("OnEvent saw %d births, stats say %d", births, st.Births)
	}
}

func TestPipelineEmitsJSONLEvents(t *testing.T) {
	const n = 10
	seq := testSequence(t, n, 61)
	var buf bytes.Buffer
	p, err := New(&oracleSegmenter{}, Config{
		Source:      seq,
		FPS:         1000,
		MaxFrames:   n,
		EventWriter: &buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var count uint64
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var e Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("bad JSONL event: %v", err)
		}
		switch e.Type {
		case "birth", "death", "merge":
		default:
			t.Fatalf("unknown event type %q", e.Type)
		}
		if e.Class != "TC" && e.Class != "AR" {
			t.Fatalf("unknown event class %q", e.Class)
		}
		count++
	}
	if want := res.Stats.Births + res.Stats.Deaths + res.Stats.Merges; count != want {
		t.Errorf("wrote %d events, stats say %d", count, want)
	}
	if count == 0 {
		t.Error("no events emitted over a stormy sequence")
	}
}

func TestPipelineSavesVizSnapshots(t *testing.T) {
	const n = 6
	seq := testSequence(t, n, 63)
	dir := t.TempDir()
	p, err := New(&oracleSegmenter{}, Config{
		Source:    seq,
		FPS:       1000,
		MaxFrames: n,
		VizEvery:  3,
		VizDir:    dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := filepath.Glob(filepath.Join(dir, "frame_*.png"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 { // frames 0 and 3
		t.Fatalf("saved %d snapshots, want 2: %v", len(got), got)
	}
	for _, f := range got {
		if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
			t.Errorf("empty or unreadable snapshot %s", f)
		}
	}
}

func TestPipelineDiurnalRateShape(t *testing.T) {
	p, err := New(&oracleSegmenter{}, Config{
		Source:      testSequence(t, 1, 1),
		FPS:         10,
		Profile:     ProfileDiurnal,
		BurstFactor: 4,
		BurstPeriod: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Quarter period (25 frames at base rate = 2.5 s into a 10 s cycle)
	// is the burst peak; the second half-cycle is the trough at base rate.
	if peak := p.rate(25); peak < 39 || peak > 40 {
		t.Errorf("peak rate %v, want 40 (FPS × BurstFactor)", peak)
	}
	if trough := p.rate(75); trough != 10 {
		t.Errorf("trough rate %v, want base FPS 10", trough)
	}
	for i := 0; i < 100; i++ {
		if r := p.rate(i); r < 10 || r > 40 {
			t.Fatalf("rate(%d) = %v outside [FPS, FPS×BurstFactor]", i, r)
		}
	}
	steady, err := New(&oracleSegmenter{}, Config{Source: testSequence(t, 1, 1), FPS: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r := steady.rate(123); r != 7 {
		t.Errorf("steady rate %v, want 7", r)
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	src := testSequence(t, 1, 1)
	for name, cfg := range map[string]Config{
		"no source":             {},
		"negative fps":          {Source: src, FPS: -1},
		"negative frames":       {Source: src, MaxFrames: -1},
		"burst below 1":         {Source: src, BurstFactor: 0.5},
		"negative queue":        {Source: src, QueueDepth: -2},
		"degrade above 1":       {Source: src, DegradeAt: 1.5},
		"boost below 1":         {Source: src, ExitBoost: 0.5},
		"coarsen above 1":       {Source: src, CoarsenAt: 1.5},
		"coarsen below degrade": {Source: src, DegradeAt: 0.6, CoarsenAt: 0.3},
		"negative maxdist":      {Source: src, MaxDist: -3},
	} {
		if _, err := New(&oracleSegmenter{}, cfg); err == nil {
			t.Errorf("%s: New succeeded", name)
		}
	}
	if _, err := New(nil, Config{Source: src}); err == nil {
		t.Error("nil segmenter: New succeeded")
	}
}

func TestParsePolicyAndProfile(t *testing.T) {
	for _, p := range []Policy{PolicyBlock, PolicyDropOldest, PolicyDegrade} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nope"); err == nil {
		t.Error("ParsePolicy accepted garbage")
	}
	for _, p := range []Profile{ProfileSteady, ProfileDiurnal} {
		got, err := ParseProfile(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProfile(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParseProfile("nope"); err == nil {
		t.Error("ParseProfile accepted garbage")
	}
}

// TestPipelineAgainstRealServer streams through an actual serve.Server over
// a small untrained network — the integration path cmd/stormwatch runs —
// under the degrade policy with an undersized queue, checking the run
// completes, drains, and stays race-clean.
func TestPipelineAgainstRealServer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := graph.New()
	images := g.Input("images", tensor.NCHW(1, climate.NumChannels, 16, 16))
	w1 := g.Param("w1", tensor.HeInit(tensor.OIHW(8, climate.NumChannels, 3, 3), rng))
	w2 := g.Param("w2", tensor.HeInit(tensor.OIHW(climate.NumClasses, 8, 1, 1), rng))
	h := g.Apply(nn.NewConv2D(1, 1, 1), images, w1)
	h = g.Apply(nn.ReLU{}, h)
	logits := g.Apply(nn.NewConv2D(1, 0, 1), h, w2)
	net := &infer.Network{Graph: g, Images: images, Logits: logits}

	srv, err := serve.New(net, serve.Config{
		Replicas:   2,
		MaxBatch:   4,
		QueueDepth: 32,
		Tile:       infer.Config{TileH: 16, TileW: 16, Overlap: 2, Precision: graph.FP32},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 8
	seq := testSequence(t, n, 67)
	p, err := New(srv, Config{
		Source:     seq,
		FPS:        500,
		MaxFrames:  n,
		Policy:     PolicyDegrade,
		QueueDepth: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Processed != n {
		t.Fatalf("processed %d frames, want %d", res.Stats.Processed, n)
	}
	if cur, _ := p.QueueDepth(); cur != 0 {
		t.Errorf("queue depth %d after Run", cur)
	}
}
