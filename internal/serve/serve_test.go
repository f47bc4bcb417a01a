package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/racecheck"
	"repro/internal/tensor"
)

// buildNet constructs a small conv→BN→ReLU→conv network for a th×tw window.
func buildNet(th, tw int, seed int64) *infer.Network {
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
	return &infer.Network{Graph: g, Images: images, Logits: logits}
}

func testConfig(mods ...func(*Config)) Config {
	cfg := Config{
		Replicas:   2,
		MaxBatch:   4,
		QueueDepth: 32,
		Tile:       infer.Config{TileH: 8, TileW: 8, Overlap: 1, Precision: graph.FP32},
	}
	for _, m := range mods {
		m(&cfg)
	}
	return cfg
}

// reference computes the expected mask through a private serial engine.
func reference(t testing.TB, src *infer.Network, cfg Config, fields *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	tc := cfg.Tile
	tc.MaxBatch = 1
	mask, err := infer.Run(src, fields, tc)
	if err != nil {
		t.Fatal(err)
	}
	return mask
}

func TestServerMatchesSerialEngine(t *testing.T) {
	src := buildNet(8, 8, 3)
	cfg := testConfig()
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(5))
	fields := tensor.RandNormal(tensor.Shape{3, 19, 27}, 0, 1, rng)
	want := reference(t, src, cfg, fields)

	mask, stat, err := s.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if mask.Data()[i] != v {
			t.Fatalf("server mask diverges from serial engine at pixel %d", i)
		}
	}
	if stat.Tiles < 2 || stat.Latency <= 0 || stat.MeanBatch < 1 {
		t.Errorf("implausible stat %+v", stat)
	}
}

// TestServerHammer is the concurrency acceptance test: 16 goroutines of
// mixed full-image and single-tile requests against one server, a third of
// them cancelled mid-flight, run under -race in CI. Successful masks must
// be bit-identical to the serial engine; cancelled requests must return the
// context error; the server must drain cleanly.
func TestServerHammer(t *testing.T) {
	src := buildNet(8, 8, 7)
	var statMu sync.Mutex
	var streamed []RequestStat
	cfg := testConfig(func(c *Config) {
		c.Replicas = 3
		c.QueueDepth = 16
		c.BatchDeadline = 100 * time.Microsecond
		c.OnStat = func(rs RequestStat) {
			statMu.Lock()
			streamed = append(streamed, rs)
			statMu.Unlock()
		}
	})
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Pre-compute reference masks for the sample set.
	rng := rand.New(rand.NewSource(11))
	type sample struct {
		fields *tensor.Tensor
		want   *tensor.Tensor
	}
	samples := make([]sample, 6)
	for i := range samples {
		h, w := 8+3*i, 8+5*i // mix of single-tile and multi-tile images
		f := tensor.RandNormal(tensor.Shape{3, h, w}, 0, 1, rng)
		samples[i] = sample{fields: f, want: reference(t, src, cfg, f)}
	}

	const goroutines, perG = 16, 8
	var wg sync.WaitGroup
	var ok, cancelled atomic.Int64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for i := 0; i < perG; i++ {
				sm := samples[rng.Intn(len(samples))]
				ctx := context.Background()
				var cancel context.CancelFunc
				doCancel := rng.Intn(3) == 0
				if doCancel {
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				}
				mask, stat, err := s.Segment(ctx, sm.fields)
				if cancel != nil {
					cancel()
				}
				switch {
				case err == nil:
					for p, v := range sm.want.Data() {
						if mask.Data()[p] != v {
							t.Errorf("goroutine %d: mask diverges at pixel %d", g, p)
							return
						}
					}
					ok.Add(1)
				case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
					if !stat.Cancelled {
						t.Errorf("cancelled request not marked cancelled: %+v", stat)
					}
					cancelled.Add(1)
				default:
					t.Errorf("goroutine %d: unexpected error %v", g, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if ok.Load() == 0 {
		t.Error("no request succeeded")
	}
	st := s.Stats()
	total := uint64(goroutines * perG)
	if st.Requests != total {
		t.Errorf("stats count %d requests, want %d", st.Requests, total)
	}
	if st.Failed != uint64(cancelled.Load()) {
		t.Errorf("stats count %d failed, cancelled %d", st.Failed, cancelled.Load())
	}
	statMu.Lock()
	if len(streamed) != int(total) {
		t.Errorf("observer streamed %d stats, want %d", len(streamed), total)
	}
	statMu.Unlock()
	if st.QueueDepth != 0 {
		t.Errorf("queue not drained: depth %d", st.QueueDepth)
	}
	if ok.Load() > 0 && (st.LatencyP50 <= 0 || st.LatencyP99 < st.LatencyP50) {
		t.Errorf("implausible latency quantiles %v/%v", st.LatencyP50, st.LatencyP99)
	}
}

func TestServerCrossRequestBatching(t *testing.T) {
	// One replica, max batch 8, a deadline to let concurrent single-tile
	// requests coalesce: with 24 concurrent 1-tile requests, mean batch
	// must exceed 1 (tiles from different requests shared executor runs).
	src := buildNet(8, 8, 9)
	cfg := testConfig(func(c *Config) {
		c.Replicas = 1
		c.MaxBatch = 8
		c.BatchDeadline = 2 * time.Millisecond
	})
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(13))
	fields := tensor.RandNormal(tensor.Shape{3, 8, 8}, 0, 1, rng)
	want := reference(t, src, cfg, fields)

	const n = 24
	var wg sync.WaitGroup
	var batchSum atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mask, stat, err := s.Segment(context.Background(), fields)
			if err != nil {
				t.Error(err)
				return
			}
			for p, v := range want.Data() {
				if mask.Data()[p] != v {
					t.Errorf("mask diverges at %d", p)
					return
				}
			}
			batchSum.Add(int64(stat.MeanBatch))
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.MeanBatch <= 1.01 {
		t.Errorf("mean batch %.2f: cross-request micro-batching never coalesced", st.MeanBatch)
	}
	_ = batchSum.Load()
}

func TestServerClosedAndValidation(t *testing.T) {
	src := buildNet(8, 8, 1)
	s, err := New(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.New(tensor.Shape{2, 16, 16}) // wrong channels
	if _, _, err := s.Segment(context.Background(), bad); err == nil {
		t.Error("channel mismatch should fail")
	}
	small := tensor.New(tensor.Shape{3, 4, 4}) // smaller than the tile
	if _, _, err := s.Segment(context.Background(), small); err == nil {
		t.Error("image smaller than tile should fail")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	f := tensor.New(tensor.Shape{3, 8, 8})
	if _, _, err := s.Segment(context.Background(), f); !errors.Is(err, ErrClosed) {
		t.Errorf("Segment after Close: %v, want ErrClosed", err)
	}
}

func TestServerPreCancelled(t *testing.T) {
	src := buildNet(8, 8, 2)
	s, err := New(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := tensor.New(tensor.Shape{3, 16, 16})
	if _, _, err := s.Segment(ctx, f); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled Segment: %v", err)
	}
}

func TestServerBackpressure(t *testing.T) {
	// Queue depth 1 with a multi-tile image forces admission to block and
	// proceed as workers drain — the request must still complete correctly.
	src := buildNet(8, 8, 4)
	cfg := testConfig(func(c *Config) {
		c.Replicas = 1
		c.MaxBatch = 2
		c.QueueDepth = 1
	})
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(21))
	fields := tensor.RandNormal(tensor.Shape{3, 26, 26}, 0, 1, rng)
	want := reference(t, src, cfg, fields)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mask, _, err := s.Segment(context.Background(), fields)
			if err != nil {
				t.Error(err)
				return
			}
			for p, v := range want.Data() {
				if mask.Data()[p] != v {
					t.Errorf("mask diverges at %d", p)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestServerConfigValidation(t *testing.T) {
	src := buildNet(8, 8, 6)
	for name, cfg := range map[string]Config{
		"negative replicas": testConfig(func(c *Config) { c.Replicas = -1 }),
		"negative queue":    testConfig(func(c *Config) { c.QueueDepth = -5 }),
		"negative deadline": testConfig(func(c *Config) { c.BatchDeadline = -time.Second }),
		"bad tile":          testConfig(func(c *Config) { c.Tile.TileH = 0 }),
	} {
		if _, err := New(src, cfg); err == nil {
			t.Errorf("%s: New succeeded", name)
		}
	}
}

func TestServerStatsThroughput(t *testing.T) {
	src := buildNet(8, 8, 8)
	s, err := New(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(17))
	fields := tensor.RandNormal(tensor.Shape{3, 14, 14}, 0, 1, rng)
	for i := 0; i < 5; i++ {
		if _, _, err := s.Segment(context.Background(), fields); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Requests != 5 || st.Failed != 0 {
		t.Errorf("requests %d failed %d", st.Requests, st.Failed)
	}
	if st.TilesPerSec <= 0 || st.RequestsPerSec <= 0 {
		t.Errorf("throughput %v req/s %v tiles/s", st.RequestsPerSec, st.TilesPerSec)
	}
	if st.Tiles == 0 || st.Batches == 0 || st.Batches > st.Tiles {
		t.Errorf("tiles %d batches %d", st.Tiles, st.Batches)
	}
}

func TestServerSegmentWithDegradedOverlap(t *testing.T) {
	// The streaming degrade lever: overlap 0 widens the tile stride, so the
	// same frame decomposes into fewer tiles, and the mask must match the
	// serial engine run at that overlap (not the server's configured one).
	src := buildNet(8, 8, 31)
	cfg := testConfig()
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(33))
	fields := tensor.RandNormal(tensor.Shape{3, 26, 34}, 0, 1, rng)

	_, full, err := s.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	degCfg := cfg
	degCfg.Tile.Overlap = 0
	want := reference(t, src, degCfg, fields)
	mask, deg, err := s.SegmentWith(context.Background(), fields, SegmentOpts{Overlap: 0})
	if err != nil {
		t.Fatal(err)
	}
	if deg.Tiles >= full.Tiles {
		t.Errorf("degraded request used %d tiles, full-overlap %d: stride did not widen", deg.Tiles, full.Tiles)
	}
	for p, v := range want.Data() {
		if mask.Data()[p] != v {
			t.Fatalf("degraded mask diverges from overlap-0 serial engine at pixel %d", p)
		}
	}
}

func TestServerCloseWhileProducerFeeding(t *testing.T) {
	// Graceful drain under sustained streaming: producers loop Segment as
	// fast as the server admits while Close lands mid-stream. Every call
	// must resolve to a correct mask or ErrClosed (no hangs, no errors of
	// any other kind), and the queue must be fully drained afterwards.
	src := buildNet(8, 8, 23)
	cfg := testConfig(func(c *Config) {
		c.Replicas = 2
		c.QueueDepth = 8
		c.BatchDeadline = 100 * time.Microsecond
	})
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(25))
	fields := tensor.RandNormal(tensor.Shape{3, 22, 30}, 0, 1, rng)
	want := reference(t, src, cfg, fields)

	const producers = 4
	var wg sync.WaitGroup
	var ok, refused atomic.Int64
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mask, _, err := s.Segment(context.Background(), fields)
				switch {
				case err == nil:
					for i, v := range want.Data() {
						if mask.Data()[i] != v {
							t.Errorf("mask diverges at %d during drain", i)
							return
						}
					}
					ok.Add(1)
				case errors.Is(err, ErrClosed):
					refused.Add(1)
					return
				default:
					t.Errorf("unexpected error under drain: %v", err)
					return
				}
			}
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the stream establish
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if ok.Load() == 0 {
		t.Error("no request completed before Close")
	}
	if refused.Load() != producers {
		t.Errorf("%d producers saw ErrClosed, want %d", refused.Load(), producers)
	}
	if st := s.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue not drained after Close: depth %d", st.QueueDepth)
	}
}

func TestServerConcurrentCloseWaitsForDrain(t *testing.T) {
	// Close must be a barrier for EVERY caller, not just the first: a
	// second concurrent Close returning mid-drain would let its caller tear
	// down shared state while workers still execute. Drive requests from
	// producers, fire many Close calls concurrently, and assert no request
	// completes after any Close has returned.
	src := buildNet(8, 8, 29)
	cfg := testConfig(func(c *Config) {
		c.Replicas = 2
		c.QueueDepth = 4
	})
	var closedAt atomic.Int64 // earliest Close-return time, unix nanos
	var lateFinishes atomic.Int64
	cfg.OnStat = func(RequestStat) {
		if at := closedAt.Load(); at != 0 && time.Now().UnixNano() > at {
			lateFinishes.Add(1)
		}
	}
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	fields := tensor.RandNormal(tensor.Shape{3, 30, 30}, 0, 1, rng)

	var producers sync.WaitGroup
	for p := 0; p < 4; p++ {
		producers.Add(1)
		go func() {
			defer producers.Done()
			for {
				if _, _, err := s.Segment(context.Background(), fields); errors.Is(err, ErrClosed) {
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond) // let requests get in flight
	var closers sync.WaitGroup
	for c := 0; c < 8; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := s.Close(); err != nil {
				t.Error(err)
			}
			now := time.Now().UnixNano()
			for {
				prev := closedAt.Load()
				if prev != 0 && prev <= now {
					return
				}
				if closedAt.CompareAndSwap(prev, now) {
					return
				}
			}
		}()
	}
	closers.Wait()
	producers.Wait()
	if n := lateFinishes.Load(); n != 0 {
		t.Errorf("%d requests completed after a Close call had returned", n)
	}
	if st := s.Stats(); st.QueueDepth != 0 {
		t.Errorf("queue not drained: depth %d", st.QueueDepth)
	}
}

func TestServerQueueDepthPeak(t *testing.T) {
	// Gauge correctness under a saturating request: a one-replica server
	// with a tiny queue and a many-tile frame must observe the queue fill
	// (peak ≥ 2) but never account past capacity plus the tiles workers
	// hold between receive and decrement (peak ≤ QueueDepth + Replicas).
	src := buildNet(8, 8, 27)
	cfg := testConfig(func(c *Config) {
		c.Replicas = 1
		c.MaxBatch = 1
		c.QueueDepth = 4
	})
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(29))
	fields := tensor.RandNormal(tensor.Shape{3, 38, 38}, 0, 1, rng)
	if _, stat, err := s.Segment(context.Background(), fields); err != nil {
		t.Fatal(err)
	} else if stat.Tiles <= cfg.QueueDepth {
		t.Fatalf("frame decomposed into %d tiles; need > %d to exercise the queue", stat.Tiles, cfg.QueueDepth)
	}
	st := s.Stats()
	if st.QueueDepthPeak < 2 {
		t.Errorf("queue depth peak %d never registered pressure", st.QueueDepthPeak)
	}
	if max := cfg.QueueDepth + cfg.Replicas; st.QueueDepthPeak > max {
		t.Errorf("queue depth peak %d exceeds capacity bound %d", st.QueueDepthPeak, max)
	}
	if st.QueueDepth != 0 {
		t.Errorf("queue depth %d after completion, want 0", st.QueueDepth)
	}
}

func TestServerCancelInFlightFrame(t *testing.T) {
	// Cancel a multi-tile frame once its first tiles have executed — the
	// remaining tiles must be skipped, the request must report Cancelled,
	// and a concurrent healthy frame sharing the batches stays bit-exact.
	src := buildNet(8, 8, 37)
	cfg := testConfig(func(c *Config) {
		c.Replicas = 1
		c.MaxBatch = 8
		c.BatchDeadline = 100 * time.Microsecond
	})
	s, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(39))
	victim := tensor.RandNormal(tensor.Shape{3, 44, 44}, 0, 1, rng)
	healthy := tensor.RandNormal(tensor.Shape{3, 20, 20}, 0, 1, rng)
	want := reference(t, src, cfg, healthy)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	victimDone := make(chan error, 1)
	go func() {
		_, stat, err := s.Segment(ctx, victim)
		if err != nil && !stat.Cancelled {
			t.Errorf("cancelled request not marked Cancelled: %+v", stat)
		}
		victimDone <- err
	}()
	// Wait until the victim's tiles start executing, then cut it mid-frame.
	for deadline := time.Now().Add(5 * time.Second); s.Stats().Tiles == 0; {
		if time.Now().After(deadline) {
			t.Fatal("victim never started executing")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	if err := <-victimDone; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("victim returned %v, want nil or context.Canceled", err)
	}
	mask, _, err := s.Segment(context.Background(), healthy)
	if err != nil {
		t.Fatal(err)
	}
	for p, v := range want.Data() {
		if mask.Data()[p] != v {
			t.Fatalf("healthy frame diverges at pixel %d after mid-batch cancel", p)
		}
	}
}

func ExampleServer() {
	src := buildNet(8, 8, 42)
	s, _ := New(src, Config{
		Replicas: 2, MaxBatch: 4, QueueDepth: 32,
		BatchDeadline: 200 * time.Microsecond,
		Tile:          infer.Config{TileH: 8, TileW: 8, Overlap: 1},
	})
	defer s.Close()
	fields := tensor.New(tensor.Shape{3, 16, 24})
	mask, stat, _ := s.Segment(context.Background(), fields)
	fmt.Println(mask.Shape(), stat.Tiles > 0)
	// Output: [16 24] true
}

// TestServedRequestAllocs is the whole-path allocation guard of serving: a
// warm request costs the same handful of heap objects whether it is one
// tile or twenty-five — the request, its job slab, its mask and its done
// channel; the tiling comes from the plan cache and every activation from
// the replica's pool. AllocsPerRun counts process-wide, so the worker's
// side of the request is included.
func TestServedRequestAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts under the race detector describe the detector")
	}
	s, err := New(buildNet(8, 8, 5), testConfig(func(c *Config) { c.Replicas = 1 }))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(1))
	for _, hw := range []int{8, 30} { // 1 tile, 5×5 tiles
		fields := tensor.RandNormal(tensor.Shape{3, hw, hw}, 0, 1, rng)
		segment := func() {
			if _, _, err := s.Segment(context.Background(), fields); err != nil {
				t.Fatal(err)
			}
		}
		segment() // plan, executors, pool
		if allocs := testing.AllocsPerRun(50, segment); allocs > 7 {
			t.Errorf("a warm %d×%d request allocates %.0f objects, want ≤ 7", hw, hw, allocs)
		}
	}
}
