package serve

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildExitNet is buildNet plus an exit tap at the post-activation of the
// first conv block — the same shape of network the registered models
// expose, scaled down.
func buildExitNet(th, tw int, seed int64) *infer.Network {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	images := g.Input("images", tensor.NCHW(1, 3, th, tw))
	w1 := g.Param("w1", tensor.HeInit(tensor.OIHW(6, 3, 3, 3), rng))
	gamma := g.Param("gamma", tensor.Full(tensor.Shape{6}, 1))
	beta := g.Param("beta", tensor.New(tensor.Shape{6}))
	w2 := g.Param("w2", tensor.HeInit(tensor.OIHW(3, 6, 1, 1), rng))
	h := g.Apply(nn.NewConv2D(1, 1, 1), images, w1)
	h = g.Apply(nn.NewBatchNorm(1e-5, 0.1), h, gamma, beta)
	h = g.Apply(nn.ReLU{}, h)
	logits := g.Apply(nn.NewConv2D(1, 0, 1), h, w2)
	return &infer.Network{Graph: g, Images: images, Logits: logits, Exit: h}
}

func exitConfig(mods ...func(*Config)) Config {
	return testConfig(append([]func(*Config){func(c *Config) {
		c.EarlyExit = true
	}}, mods...)...)
}

// exitScoresOf computes every planned tile's raw exit score through a
// private engine, in plan order.
func exitScoresOf(t *testing.T, src *infer.Network, cfg Config, fields *tensor.Tensor) ([]infer.Tile, []float64) {
	t.Helper()
	tc := cfg.Tile
	tc.MaxBatch = 1
	r, err := infer.NewRunner(src, tc)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fs := fields.Shape()
	plan, err := infer.Plan(fs[1], fs[2], tc)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(plan))
	for i, tl := range plan {
		if err := r.ExitScores([]infer.BatchItem{{Fields: fields, Tile: tl}}, scores[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	return plan, scores
}

func TestServerEarlyExitRequiresTap(t *testing.T) {
	src := buildNet(8, 8, 1) // no exit tap
	if _, err := New(src, exitConfig()); err == nil {
		t.Fatal("EarlyExit without an exit tap accepted")
	}
}

// TestServerExitEverythingWritesBackground: with an unreachable threshold
// every tile exits, the mask is all-background, and the two-class counters
// account for every tile on the exit path.
func TestServerExitEverythingWritesBackground(t *testing.T) {
	src := buildExitNet(8, 8, 1)
	cfg := exitConfig(func(c *Config) { c.ExitThreshold = math.Inf(1) })
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(7))
	fields := tensor.RandNormal(tensor.Shape{3, 20, 26}, 0, 1, rng)
	mask, stat, err := s.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range mask.Data() {
		if v != 0 {
			t.Fatalf("pixel %d is %v, want background", i, v)
		}
	}
	plan, _ := exitScoresOf(t, src, cfg, fields)
	if stat.ExitedTiles != len(plan) {
		t.Errorf("request exited %d tiles, want %d", stat.ExitedTiles, len(plan))
	}
	if stat.Compute <= 0 {
		t.Error("exit-path compute time not attributed to the request")
	}
	st := s.Stats()
	if st.ExitedTiles != uint64(len(plan)) || st.Tiles != 0 {
		t.Errorf("exited=%d decoded=%d, want %d and 0", st.ExitedTiles, st.Tiles, len(plan))
	}
	if st.ExitChecks != uint64(len(plan)) {
		t.Errorf("exit checks %d, want %d", st.ExitChecks, len(plan))
	}
	if st.ExitRate != 1 {
		t.Errorf("exit rate %v, want 1", st.ExitRate)
	}
	if st.ExitCheckP50 <= 0 {
		t.Error("exit-check latency histogram empty")
	}
}

// TestServerExitNothingMatchesFullDecode: the zero threshold exits nothing,
// so the served mask must be bit-identical to the plain full-decode path —
// every tile demotes through the decode queue.
func TestServerExitNothingMatchesFullDecode(t *testing.T) {
	src := buildExitNet(8, 8, 2)
	cfg := exitConfig() // ExitThreshold zero value
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	fields := tensor.RandNormal(tensor.Shape{3, 19, 23}, 0, 1, rng)
	want := reference(t, src, cfg, fields)
	mask, stat, err := s.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if mask.Data()[i] != v {
			t.Fatalf("pixel %d diverges from full decode", i)
		}
	}
	if stat.ExitedTiles != 0 {
		t.Errorf("exited %d tiles with a zero threshold", stat.ExitedTiles)
	}
	st := s.Stats()
	if st.ExitChecks == 0 {
		t.Error("no exit checks ran")
	}
	if st.ExitedTiles != 0 || st.ExitRate != 0 {
		t.Errorf("exited=%d rate=%v, want zero", st.ExitedTiles, st.ExitRate)
	}
	if st.Tiles != st.ExitChecks {
		t.Errorf("decoded %d of %d checked tiles", st.Tiles, st.ExitChecks)
	}
	if st.DecodeP50 <= 0 || st.ExitCheckP50 <= 0 {
		t.Error("per-path latency histograms empty")
	}
}

// TestServerExitPartialMatchesSelectiveDecode pins the two-queue scheduler
// end to end: with a mid-distribution threshold, the served mask must equal
// a full decode with exactly the below-threshold tiles' keep regions
// rewritten as background — no tile lost or double-written on the
// demotion path.
func TestServerExitPartialMatchesSelectiveDecode(t *testing.T) {
	src := buildExitNet(8, 8, 3)
	base := exitConfig()
	rng := rand.New(rand.NewSource(9))
	fields := tensor.RandNormal(tensor.Shape{3, 27, 31}, 0, 1, rng)
	plan, scores := exitScoresOf(t, src, base, fields)
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	thr := sorted[len(sorted)/2] // median: some exit, some decode
	wantExits := 0
	for _, sc := range scores {
		if sc < thr {
			wantExits++
		}
	}
	if wantExits == 0 || wantExits == len(plan) {
		t.Fatalf("degenerate threshold: %d of %d exit", wantExits, len(plan))
	}

	want := reference(t, src, base, fields)
	for i, tl := range plan {
		if scores[i] < thr {
			infer.WriteBackground(infer.BatchItem{Mask: want, Tile: tl})
		}
	}

	cfg := exitConfig(func(c *Config) { c.ExitThreshold = thr })
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mask, stat, err := s.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if mask.Data()[i] != v {
			t.Fatalf("pixel %d diverges from selective decode", i)
		}
	}
	if stat.ExitedTiles != wantExits {
		t.Errorf("exited %d tiles, want %d", stat.ExitedTiles, wantExits)
	}
	if stat.Tiles != len(plan) {
		t.Errorf("request tile count %d, want %d", stat.Tiles, len(plan))
	}
}

// TestServerExitBoostRaisesThreshold: a SegmentWith ExitBoost > 1 scales
// the request's threshold up — the degrade ladder's first rung.
func TestServerExitBoostRaisesThreshold(t *testing.T) {
	src := buildExitNet(8, 8, 4)
	rng := rand.New(rand.NewSource(11))
	fields := tensor.RandNormal(tensor.Shape{3, 16, 16}, 0, 1, rng)
	_, scores := exitScoresOf(t, src, exitConfig(), fields)
	lo := math.Inf(1)
	hi := math.Inf(-1)
	for _, sc := range scores {
		lo = math.Min(lo, sc)
		hi = math.Max(hi, sc)
	}
	// Threshold below every score; boosted past every score.
	thr := lo * 0.5
	boost := hi * 4 / thr
	cfg := exitConfig(func(c *Config) { c.ExitThreshold = thr })
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	_, stat, err := s.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	if stat.ExitedTiles != 0 {
		t.Fatalf("unboosted request exited %d tiles", stat.ExitedTiles)
	}
	mask, stat, err := s.SegmentWith(context.Background(), fields, SegmentOpts{Overlap: -1, ExitBoost: boost})
	if err != nil {
		t.Fatal(err)
	}
	if stat.ExitedTiles != len(scores) {
		t.Fatalf("boosted request exited %d of %d tiles", stat.ExitedTiles, len(scores))
	}
	for i, v := range mask.Data() {
		if v != 0 {
			t.Fatalf("boosted pixel %d is %v, want background", i, v)
		}
	}
}

// TestServerExitConcurrentRequestsStayIsolated runs many concurrent
// requests over distinct inputs through the two-queue scheduler and checks
// each one's mask against its own selective-decode expectation — exercising
// demotion, batch coalescing across requests, and drain under load.
func TestServerExitConcurrentRequestsStayIsolated(t *testing.T) {
	src := buildExitNet(8, 8, 5)
	base := exitConfig()
	type sample struct {
		fields *tensor.Tensor
		want   *tensor.Tensor
	}
	// Shared threshold: the median of the first sample's score distribution.
	rng := rand.New(rand.NewSource(13))
	probe := tensor.RandNormal(tensor.Shape{3, 21, 25}, 0, 1, rng)
	_, probeScores := exitScoresOf(t, src, base, probe)
	sorted := append([]float64(nil), probeScores...)
	sort.Float64s(sorted)
	thr := sorted[len(sorted)/2]

	const n = 8
	samples := make([]sample, n)
	for i := range samples {
		fields := tensor.RandNormal(tensor.Shape{3, 21, 25}, 0, 1, rng)
		plan, scores := exitScoresOf(t, src, base, fields)
		want := reference(t, src, base, fields)
		for j, tl := range plan {
			if scores[j] < thr {
				infer.WriteBackground(infer.BatchItem{Mask: want, Tile: tl})
			}
		}
		samples[i] = sample{fields: fields, want: want}
	}

	cfg := exitConfig(func(c *Config) { c.ExitThreshold = thr })
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for i := range samples {
		wg.Add(1)
		go func(sm sample) {
			defer wg.Done()
			mask, _, err := s.Segment(context.Background(), sm.fields)
			if err != nil {
				t.Error(err)
				return
			}
			for p, v := range sm.want.Data() {
				if mask.Data()[p] != v {
					t.Errorf("pixel %d diverges from selective decode", p)
					return
				}
			}
		}(samples[i])
	}
	wg.Wait()
	st := s.Stats()
	if st.ExitChecks == 0 || st.ExitedTiles == 0 || st.Tiles == 0 {
		t.Errorf("want both paths exercised: checks=%d exited=%d decoded=%d",
			st.ExitChecks, st.ExitedTiles, st.Tiles)
	}
}

// TestRequestStatDecomposesLatency: QueueWait and Compute are recorded per
// request and neither exceeds the end-to-end latency. One replica: Compute
// sums executor time over the request's tiles, so replicas working side by
// side legitimately sum past the wall-clock latency.
func TestRequestStatDecomposesLatency(t *testing.T) {
	src := buildExitNet(8, 8, 6)
	cfg := exitConfig(func(c *Config) { c.ExitThreshold, c.Replicas = math.Inf(1), 1 })
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(17))
	fields := tensor.RandNormal(tensor.Shape{3, 16, 16}, 0, 1, rng)
	_, stat, err := s.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Compute <= 0 {
		t.Error("compute time missing")
	}
	if stat.QueueWait < 0 {
		t.Error("negative queue wait")
	}
	if stat.Compute > stat.Latency || stat.QueueWait > stat.Latency {
		t.Errorf("decomposition exceeds latency: wait=%v compute=%v latency=%v",
			stat.QueueWait, stat.Compute, stat.Latency)
	}
}
