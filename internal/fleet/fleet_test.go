package fleet

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
	"repro/internal/models"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/simnet"
	"repro/internal/tensor"
)

// buildNet constructs the small conv→BN→ReLU→conv serving network the
// serve suite uses, with an exit tap so the same helper serves the
// adaptive configs.
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
	return &infer.Network{Graph: g, Images: images, Logits: logits, Exit: h}
}

func testConfig(mods ...func(*Config)) Config {
	cfg := Config{
		Shards:        2,
		ShardReplicas: 2,
		MaxBatch:      4,
		QueueDepth:    32,
		Tile:          infer.Config{TileH: 8, TileW: 8, Overlap: 1, Precision: graph.FP32},
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

func assertMaskEqual(t testing.TB, want, got *tensor.Tensor, what string) {
	t.Helper()
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("%s: mask diverges at pixel %d (want %v, got %v)", what, i, wd[i], gd[i])
		}
	}
}

func TestFleetMatchesSerialEngine(t *testing.T) {
	src := buildNet(8, 8, 3)
	cfg := testConfig()
	f, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(5))
	fields := tensor.RandNormal(tensor.Shape{3, 19, 27}, 0, 1, rng)
	want := reference(t, src, cfg, fields)

	mask, stat, err := f.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	assertMaskEqual(t, want, mask, "fleet vs serial")
	if stat.Tiles < 2 || stat.Latency <= 0 || stat.Version != 0 {
		t.Errorf("implausible stat %+v", stat)
	}
	st := f.Stats()
	if st.Requests != 1 || st.Tiles == 0 || st.VirtualSeconds <= 0 || st.VirtualReqPerSec <= 0 {
		t.Errorf("implausible fleet stats %+v", st)
	}
}

// TestFleetShardParity is the scatter/gather parity matrix: every shard
// count × replica count must produce masks bit-identical to the
// single-process serve path (checked directly) and to the serial engine,
// over ragged and single-tile grids.
func TestFleetShardParity(t *testing.T) {
	src := buildNet(8, 8, 3)
	grids := []tensor.Shape{{3, 19, 27}, {3, 8, 8}, {3, 24, 9}}
	rng := rand.New(rand.NewSource(7))
	fields := make([]*tensor.Tensor, len(grids))
	wants := make([]*tensor.Tensor, len(grids))
	base := testConfig()
	srv, err := serve.New(src, serve.Config{Replicas: 2, MaxBatch: 4, Tile: base.Tile})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range grids {
		fields[i] = tensor.RandNormal(g, 0, 1, rng)
		wants[i] = reference(t, src, base, fields[i])
		sm, _, err := srv.Segment(context.Background(), fields[i])
		if err != nil {
			t.Fatal(err)
		}
		assertMaskEqual(t, wants[i], sm, fmt.Sprintf("serve vs serial, grid %v", g))
	}
	srv.Close()
	for _, shards := range []int{1, 2, 4, 8} {
		for _, reps := range []int{1, 3} {
			t.Run(fmt.Sprintf("shards=%d/replicas=%d", shards, reps), func(t *testing.T) {
				cfg := testConfig(func(c *Config) {
					c.Shards = shards
					c.ShardReplicas = reps
				})
				f, err := New(src, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				for i := range fields {
					mask, _, err := f.Segment(context.Background(), fields[i])
					if err != nil {
						t.Fatal(err)
					}
					assertMaskEqual(t, wants[i], mask, fmt.Sprintf("grid %v", grids[i]))
				}
			})
		}
	}
}

// TestFleetEarlyExitParity: the adaptive path on sharded serving must make
// the same per-tile exit decisions as a serial engine — exited tiles
// become background, the rest decode bit-identically.
func TestFleetEarlyExitParity(t *testing.T) {
	src := buildNet(8, 8, 3)
	rng := rand.New(rand.NewSource(11))
	fields := tensor.RandNormal(tensor.Shape{3, 19, 27}, 0, 1, rng)
	cfg := testConfig(func(c *Config) {
		c.Shards = 3
		c.EarlyExit = true
	})

	// Median raw exit score as threshold: some tiles exit, some decode.
	tc := cfg.Tile
	tc.MaxBatch = 1
	r, err := infer.NewRunner(src, tc)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := infer.Plan(19, 27, tc)
	if err != nil {
		t.Fatal(err)
	}
	scores := make([]float64, len(plan))
	items := make([]infer.BatchItem, len(plan))
	for i, tl := range plan {
		items[i] = infer.BatchItem{Fields: fields, Tile: tl}
	}
	for i := range items {
		if err := r.ExitScores(items[i:i+1], scores[i:i+1], nil); err != nil {
			t.Fatal(err)
		}
	}
	lo, hi := scores[0], scores[0]
	for _, s := range scores {
		lo, hi = min(lo, s), max(hi, s)
	}
	cfg.ExitThreshold = (lo + hi) / 2

	// Serial reference with the same exit rule.
	want := tensor.New(tensor.Shape{19, 27})
	var exitedRef int
	for i, tl := range plan {
		it := infer.BatchItem{Fields: fields, Tile: tl, Mask: want}
		if scores[i] < cfg.ExitThreshold {
			infer.WriteBackground(it)
			exitedRef++
			continue
		}
		if err := r.RunBatch([]infer.BatchItem{it}); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	if exitedRef == 0 || exitedRef == len(plan) {
		t.Fatalf("degenerate exit split %d/%d", exitedRef, len(plan))
	}

	f, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	mask, stat, err := f.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	assertMaskEqual(t, want, mask, "early-exit fleet vs serial")
	if stat.ExitedTiles != exitedRef {
		t.Errorf("fleet exited %d tiles, serial reference %d", stat.ExitedTiles, exitedRef)
	}
}

// TestFleetChaos is the chaos harness: a shard is chaos-killed mid-load.
// Every accepted request must either complete with a mask bit-identical to
// a healthy run or fail with a typed error; lost tiles must be
// re-dispatched to survivors.
func TestFleetChaos(t *testing.T) {
	src := buildNet(8, 8, 3)
	const shards = 3
	ff := simnet.NewFaultFabric(simnet.ServingCluster(shards))
	ff.FailNode(2, 3) // shard 1 dies once it sees traffic from request 3 on
	cfg := testConfig(func(c *Config) {
		c.Shards = shards
		c.Fabric = ff
	})
	f, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	fields := make([]*tensor.Tensor, 4)
	wants := make([]*tensor.Tensor, len(fields))
	for i := range fields {
		fields[i] = tensor.RandNormal(tensor.Shape{3, 19, 27}, 0, 1, rng)
		wants[i] = reference(t, src, cfg, fields[i])
	}

	const requests = 24
	var wg sync.WaitGroup
	errs := make([]error, requests)
	masks := make([]*tensor.Tensor, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			masks[i], _, errs[i] = f.Segment(context.Background(), fields[i%len(fields)])
		}(i)
	}
	wg.Wait()

	for i := 0; i < requests; i++ {
		switch {
		case errs[i] == nil:
			assertMaskEqual(t, wants[i%len(fields)], masks[i], fmt.Sprintf("request %d after chaos", i))
		case errors.Is(errs[i], errNoShards) || errors.Is(errs[i], ErrClosed):
			// Typed failure: acceptable only if the fleet genuinely ran out
			// of shards, which it cannot here (2 of 3 survive).
			t.Errorf("request %d failed %v with survivors available", i, errs[i])
		default:
			t.Errorf("request %d failed untyped: %v", i, errs[i])
		}
	}
	st := f.Stats()
	if st.DeadShards != 1 {
		t.Errorf("dead shards = %d, want 1", st.DeadShards)
	}
	if st.Redispatched == 0 {
		t.Error("chaos run re-dispatched no tiles — the kill never hit in-flight work")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetAllShardsDead: when chaos takes every shard, accepted requests
// fail with errNoShards — typed, not hung, not silent.
func TestFleetAllShardsDead(t *testing.T) {
	src := buildNet(8, 8, 3)
	const shards = 2
	ff := simnet.NewFaultFabric(simnet.ServingCluster(shards))
	ff.FailNode(1, 1)
	ff.FailNode(2, 1)
	cfg := testConfig(func(c *Config) {
		c.Shards = shards
		c.Fabric = ff
	})
	f, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(17))
	fields := tensor.RandNormal(tensor.Shape{3, 19, 27}, 0, 1, rng)
	for i := 0; i < 3; i++ {
		if _, _, err := f.Segment(context.Background(), fields); !errors.Is(err, errNoShards) {
			t.Fatalf("request %d: err = %v, want errNoShards", i, err)
		}
	}
	if st := f.Stats(); st.Failed != 3 || st.DeadShards != shards {
		t.Errorf("stats %+v after total shard loss", st)
	}
}

// captureState snapshots a network's parameters as a training state at the
// given step — the transport format of the hot-swap path.
func captureState(t testing.TB, net *infer.Network, step uint64) *models.TrainState {
	t.Helper()
	params, err := models.CaptureParamsInto(net.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &models.TrainState{Step: step, Ranks: 1, GlobalBatch: 1, Params: params}
}

// TestFleetHotSwapAtomicity is the swap atomicity property test: requests
// hammer the fleet while N rolling swaps run. Every successful mask must
// be bit-identical to the serial reference of the exact weight version its
// stat reports — pure-old or pure-new, never a mix — and no accepted
// request may be dropped.
func TestFleetHotSwapAtomicity(t *testing.T) {
	const versions = 4
	src := buildNet(8, 8, 3)
	cfg := testConfig(func(c *Config) {
		c.Shards = 3
		c.NewNetwork = func() (*infer.Network, error) { return buildNet(8, 8, 3), nil }
	})
	rng := rand.New(rand.NewSource(19))
	fields := tensor.RandNormal(tensor.Shape{3, 19, 27}, 0, 1, rng)

	// Per-version weights and serial reference masks. Version 0 is the
	// fleet's starting weights; versions 1..N are distinct random retrains.
	states := make([]*models.TrainState, versions+1)
	wants := make([]*tensor.Tensor, versions+1)
	wants[0] = reference(t, src, cfg, fields)
	for v := 1; v <= versions; v++ {
		vn := buildNet(8, 8, 100+int64(v))
		states[v] = captureState(t, vn, uint64(1000*v))
		wants[v] = reference(t, vn, cfg, fields)
	}
	// Distinct versions must be distinguishable for the test to prove
	// anything: at least one reference pair should differ.
	distinct := false
	for v := 1; v <= versions && !distinct; v++ {
		for i, x := range wants[v].Data() {
			if x != wants[0].Data()[i] {
				distinct = true
				break
			}
		}
	}
	if !distinct {
		t.Fatal("all weight versions segment identically; atomicity unprovable")
	}

	f, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		mask *tensor.Tensor
		stat RequestStat
		err  error
	}
	var (
		wg      sync.WaitGroup
		resMu   sync.Mutex
		results []result
		stopGen atomic.Bool
	)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopGen.Load() {
				mask, stat, err := f.Segment(context.Background(), fields)
				resMu.Lock()
				results = append(results, result{mask, stat, err})
				resMu.Unlock()
			}
		}()
	}

	for v := 1; v <= versions; v++ {
		if err := f.SwapWeights(states[v]); err != nil {
			t.Errorf("swap to version %d: %v", v, err)
		}
	}
	// Let post-swap traffic observe the final version before stopping.
	time.Sleep(20 * time.Millisecond)
	stopGen.Store(true)
	wg.Wait()
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	seen := map[uint64]int{}
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("request %d dropped during rolling swaps: %v", i, r.err)
		}
		if r.stat.Version > versions {
			t.Fatalf("request %d reports version %d beyond the %d swapped", i, r.stat.Version, versions)
		}
		assertMaskEqual(t, wants[r.stat.Version], r.mask,
			fmt.Sprintf("request %d pinned to version %d", i, r.stat.Version))
		seen[r.stat.Version]++
	}
	if len(seen) < 2 {
		t.Errorf("only versions %v observed; hammer never straddled a swap", seen)
	}
	st := f.Stats()
	if st.Swaps != versions || st.Version != versions {
		t.Errorf("stats report %d swaps at version %d, want %d", st.Swaps, st.Version, versions)
	}
}

// TestFleetSwapRequiresFactory: SwapWeights without a NewNetwork factory is
// a typed error, not a panic.
func TestFleetSwapRequiresFactory(t *testing.T) {
	src := buildNet(8, 8, 3)
	f, err := New(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.SwapWeights(captureState(t, src, 1)); !errors.Is(err, errNoFactory) {
		t.Fatalf("err = %v, want errNoFactory", err)
	}
}

// TestFleetSwapper: the checkpoint watcher picks up each new snapshot in
// the directory and rolls it in; serving output follows the latest step.
func TestFleetSwapper(t *testing.T) {
	src := buildNet(8, 8, 3)
	cfg := testConfig(func(c *Config) {
		c.NewNetwork = func() (*infer.Network, error) { return buildNet(8, 8, 3), nil }
	})
	rng := rand.New(rand.NewSource(23))
	fields := tensor.RandNormal(tensor.Shape{3, 19, 27}, 0, 1, rng)
	vn := buildNet(8, 8, 200)
	want := reference(t, vn, cfg, fields)

	f, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	dir := t.TempDir()
	var swapped atomic.Int64
	sw := f.WatchSnapshots(dir, time.Millisecond, func(step uint64, err error) {
		if err == nil {
			swapped.Add(1)
		} else {
			t.Errorf("swap of step %d: %v", step, err)
		}
	})
	defer sw.Stop()

	if _, err := models.WriteSnapshotAtomic(dir, captureState(t, vn, 500), false); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for swapped.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watcher never swapped the snapshot in")
		}
		time.Sleep(time.Millisecond)
	}
	mask, stat, err := f.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Version != 1 || stat.Step != 500 {
		t.Fatalf("post-swap request served by version %d step %d", stat.Version, stat.Step)
	}
	assertMaskEqual(t, want, mask, "post-swap serving")
}

// TestFleetConcurrentCloseWaitsForDrain extends the serve Close contract
// to the fleet: every accepted request finishes before any concurrent
// Close call returns, and post-Close admissions are typed.
func TestFleetConcurrentCloseWaitsForDrain(t *testing.T) {
	src := buildNet(8, 8, 3)
	var closedAt atomic.Int64
	var lateFinish atomic.Int64
	cfg := testConfig(func(c *Config) {
		c.Shards = 3
		c.OnStat = func(RequestStat) {
			if at := closedAt.Load(); at != 0 && time.Now().UnixNano() > at {
				lateFinish.Add(1)
			}
		}
	})
	f, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	fields := tensor.RandNormal(tensor.Shape{3, 19, 27}, 0, 1, rng)

	var accepted, finished atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _, err := f.Segment(context.Background(), fields)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("segment: %v", err)
					return
				}
				accepted.Add(1)
				finished.Add(1)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)

	var closers sync.WaitGroup
	for c := 0; c < 8; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := f.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
			now := time.Now().UnixNano()
			closedAt.CompareAndSwap(0, now)
		}()
	}
	closers.Wait()
	close(stop)
	wg.Wait()

	if lateFinish.Load() != 0 {
		t.Errorf("%d requests finished after a Close call returned", lateFinish.Load())
	}
	if _, _, err := f.Segment(context.Background(), fields); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close Segment err = %v, want ErrClosed", err)
	}
	if accepted.Load() == 0 {
		t.Error("no requests accepted before close; test exercised nothing")
	}
}

// TestFleetCancelInFlight: a context cancelled mid-request fails that
// request typed and leaves the fleet serving.
func TestFleetCancelInFlight(t *testing.T) {
	src := buildNet(8, 8, 3)
	f, err := New(src, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(31))
	fields := tensor.RandNormal(tensor.Shape{3, 40, 40}, 0, 1, rng)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, stat, err := f.Segment(ctx, fields); !errors.Is(err, context.Canceled) || !stat.Cancelled {
		t.Fatalf("cancelled request: err=%v stat=%+v", err, stat)
	}
	mask, _, err := f.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	assertMaskEqual(t, reference(t, src, testConfig(), fields), mask, "post-cancel serving")
}
