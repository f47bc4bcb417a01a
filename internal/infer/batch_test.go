package infer

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/climate"
	"repro/internal/graph"
	"repro/internal/loss"
	"repro/internal/models"
	"repro/internal/tensor"
)

// buildBNDropNet builds a small Tiramisu with batch norm and (optionally)
// dropout — the two ops whose inference semantics the batched path must get
// right — trained-state-free but with real He-initialized weights.
func buildBNDropNet(t testing.TB, tile int, dropout float64) *models.Network {
	t.Helper()
	net, err := models.BuildTiramisu(models.TiramisuConfig{
		Config: models.Config{
			BatchSize: 1, InChannels: 4, NumClasses: 3,
			Height: tile, Width: tile, Seed: 11,
		},
		GrowthRate: 2, Kernel: 3, DownLayers: []int{2},
		BottleneckLayers: 2, InitialChannels: 4, DropoutRate: dropout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestBatchedMatchesSerialAcrossBatchSizes is the tentpole property: the
// stitched mask is bit-identical for MaxBatch 1 (the serial path), a small
// batch that leaves a ragged tail, and one batch holding every tile — on a
// non-divisible image size, with batch norm and dropout in the network.
func TestBatchedMatchesSerialAcrossBatchSizes(t *testing.T) {
	const tile, h, w = 16, 37, 45
	net := buildBNDropNet(t, tile, 0.4)
	inet := FromModel(net)
	rng := rand.New(rand.NewSource(2))
	fields := tensor.RandNormal(tensor.Shape{4, h, w}, 0, 1, rng)

	base := Config{TileH: tile, TileW: tile, Overlap: 2, Precision: graph.FP32}
	tiles, err := Plan(h, w, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles)%5 == 0 {
		t.Fatalf("want a ragged tail for MaxBatch 5, got %d tiles", len(tiles))
	}

	var ref *tensor.Tensor
	for _, kb := range []int{1, 3, 5, len(tiles)} {
		cfg := base
		cfg.MaxBatch = kb
		mask, err := Run(inet, fields, cfg)
		if err != nil {
			t.Fatalf("MaxBatch %d: %v", kb, err)
		}
		if ref == nil {
			ref = mask
			continue
		}
		for i, v := range ref.Data() {
			if mask.Data()[i] != v {
				t.Fatalf("MaxBatch %d diverges from serial at pixel %d", kb, i)
			}
		}
	}
}

// TestBatchedMatchesLegacySerialLoop pins the refactor to the historical
// semantics: the batched engine at any batch size must reproduce, bit for
// bit, the pre-batching serial loop (train-mode graph executed tile by tile
// at batch 1 with placeholder label/weight feeds). Dropout-free network, as
// the legacy loop ran training-mode dropout.
func TestBatchedMatchesLegacySerialLoop(t *testing.T) {
	const tile, h, w = 16, 33, 40
	net := buildBNDropNet(t, tile, 0)
	cfg := Config{TileH: tile, TileW: tile, Overlap: 2, Precision: graph.FP32, MaxBatch: 4}
	rng := rand.New(rand.NewSource(9))
	fields := tensor.RandNormal(tensor.Shape{4, h, w}, 0, 1, rng)

	// Legacy path: one pooled executor on the training graph, one tile per
	// run, loss head executed with placeholder feeds, predictions stitched.
	tiles, err := Plan(h, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.New(tensor.Shape{h, w})
	window := tensor.New(tensor.NCHW(1, 4, tile, tile))
	lshape := tensor.Shape{1, tile, tile}
	feeds := map[*graph.Node]*tensor.Tensor{
		net.Images:  window,
		net.Labels:  tensor.New(lshape),
		net.Weights: tensor.Ones(lshape),
	}
	ex := graph.NewPooledExecutor(net.Graph, graph.FP32, 1, nil)
	for _, tl := range tiles {
		crop(fields, window, 0, tl.Y, tl.X, tile, tile)
		if err := ex.Forward(feeds); err != nil {
			t.Fatal(err)
		}
		pred := loss.Predictions(ex.Value(net.Logits))
		pd, md := pred.Data(), want.Data()
		for y := tl.KeepY0; y < tl.KeepY1; y++ {
			for x := tl.KeepX0; x < tl.KeepX1; x++ {
				md[(tl.Y+y)*w+tl.X+x] = pd[y*tile+x]
			}
		}
	}
	graph.ReleaseOpCaches(net.Graph)

	got, err := Run(FromModel(net), fields, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("batched engine diverges from legacy serial loop at pixel %d", i)
		}
	}
}

// TestRunnerReuse checks the persistent engine: repeated Segment calls on
// one Runner reuse its decode branch (the ragged final batch runs as a
// prefix of the same clone) and keep producing identical masks, and the
// pool shows reuse, not growth.
func TestRunnerReuse(t *testing.T) {
	const tile, h, w = 16, 37, 45
	net := buildBNDropNet(t, tile, 0)
	r, err := NewRunner(FromModel(net), Config{
		TileH: tile, TileW: tile, Overlap: 2, Precision: graph.FP32, MaxBatch: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(4))
	fields := tensor.RandNormal(tensor.Shape{4, h, w}, 0, 1, rng)

	first, err := r.Segment(fields)
	if err != nil {
		t.Fatal(err)
	}
	// The first pass sized the branch at MaxBatch; its ragged final batch
	// already ran as a prefix, so no later pass faults in a buffer.
	missesWarm := r.PoolStats().Misses
	for pass := 0; pass < 4; pass++ {
		m, err := r.Segment(fields)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range first.Data() {
			if m.Data()[i] != v {
				t.Fatalf("pass %d diverges at pixel %d", pass, i)
			}
		}
	}
	if got := r.PoolStats().Misses; got != missesWarm {
		t.Errorf("pool misses grew from %d to %d on warm repeat passes (buffers not reused)", missesWarm, got)
	}
}

// TestRunnerValidatesBatch covers the RunBatch contract directly.
func TestRunnerValidatesBatch(t *testing.T) {
	const tile = 16
	net := buildBNDropNet(t, tile, 0)
	r, err := NewRunner(FromModel(net), Config{TileH: tile, TileW: tile, Overlap: 2, MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fields := tensor.New(tensor.Shape{4, 20, 20})
	mask := tensor.New(tensor.Shape{20, 20})
	items := []BatchItem{
		{Fields: fields, Tile: Tile{KeepY1: tile, KeepX1: tile}, Mask: mask},
		{Fields: fields, Tile: Tile{KeepY1: tile, KeepX1: tile}, Mask: mask},
		{Fields: fields, Tile: Tile{KeepY1: tile, KeepX1: tile}, Mask: mask},
	}
	if err := r.RunBatch(items); err == nil {
		t.Error("batch above MaxBatch should fail")
	}
	if err := r.RunBatch(items[:0]); err != nil {
		t.Errorf("empty batch should be a no-op, got %v", err)
	}
	bad := []BatchItem{{Fields: tensor.New(tensor.Shape{3, 20, 20}), Tile: items[0].Tile, Mask: mask}}
	if err := r.RunBatch(bad); err == nil {
		t.Error("channel mismatch should fail")
	}
}

// TestFromModelBatchedOnClimateSample exercises the end-to-end deployment
// configuration: adapt a registry-built tiny Tiramisu, segment a full
// synthetic snapshot batched, and compare against the serial path.
func TestFromModelBatchedOnClimateSample(t *testing.T) {
	const th, tw = 16, 16
	net, err := models.BuildTiramisu(models.TinyTiramisu(models.Config{
		BatchSize: 1, InChannels: climate.NumChannels, NumClasses: climate.NumClasses,
		Height: th, Width: tw, Seed: 3,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ds := climate.NewDataset(climate.DefaultGenConfig(48, 64, 7), 1)
	s := ds.Sample(0)
	inet := FromModel(net)
	serial, err := Run(inet, s.Fields, Config{TileH: th, TileW: tw, Overlap: 2, Precision: graph.FP32})
	if err != nil {
		t.Fatal(err)
	}
	batched, err := Run(inet, s.Fields, Config{TileH: th, TileW: tw, Overlap: 2, Precision: graph.FP32, MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range serial.Data() {
		if batched.Data()[i] != v {
			t.Fatalf("batched diverges from serial at pixel %d", i)
		}
	}
	for _, v := range batched.Data() {
		if v < 0 || v >= climate.NumClasses {
			t.Fatalf("mask value %v outside class range", v)
		}
	}
}

// TestRunnerPoolSteadyState: each branch of a Runner is one clone that
// serves every batch size. Per precision, batches of 1, 8, 4, 2, 3, 5, 6,
// 7, 1, 8 tiles through both branches (RunBatch, then ExitScores) size each
// branch at 1 and re-size it once to MaxBatch; after that second call the
// pool faults in nothing, and every mask and score is bit-identical to a
// MaxBatch 1 Runner's. Then 200 more warm calls: the pool takes back no
// more than it handed out (Puts ≤ Gets — the executor recycles only
// workspace tensors, whatever an op allocates on the heap is the
// collector's), still faults in nothing, and the live heap stays flat.
func TestRunnerPoolSteadyState(t *testing.T) {
	const tile, hw = 16, 40
	net, err := buildClimateNet(tile)
	if err != nil {
		t.Fatal(err)
	}
	fields := tensor.RandNormal(tensor.Shape{climate.NumChannels, hw, hw}, 0, 1, rand.New(rand.NewSource(6)))
	sizes := []int{1, 8, 4, 2, 3, 5, 6, 7, 1, 8}
	for _, prec := range []graph.Precision{graph.FP32, graph.FP16, graph.INT8} {
		cfg := Config{TileH: tile, TileW: tile, Overlap: 2, Precision: prec, MaxBatch: 8}
		r, err := NewRunner(net, cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial := cfg
		serial.MaxBatch = 1
		ref, err := NewRunner(net, serial)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Plan(hw, hw, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(plan) < cfg.MaxBatch {
			t.Fatalf("%d tiles, want at least %d", len(plan), cfg.MaxBatch)
		}
		mask, refMask := tensor.New(tensor.Shape{hw, hw}), tensor.New(tensor.Shape{hw, hw})
		items := make([]BatchItem, len(plan))
		refItems := make([]BatchItem, len(plan))
		for i, tl := range plan {
			items[i] = BatchItem{Fields: fields, Tile: tl, Mask: mask}
			refItems[i] = BatchItem{Fields: fields, Tile: tl, Mask: refMask}
		}
		scores, refScore := make([]float64, cfg.MaxBatch), make([]float64, 1)
		call := func(n int) {
			if err := r.RunBatch(items[:n]); err != nil {
				t.Fatal(err)
			}
			if err := r.ExitScores(items[:n], scores, nil); err != nil {
				t.Fatal(err)
			}
		}
		var warm uint64
		for i, n := range sizes {
			call(n)
			if i == 1 {
				warm = r.PoolStats().Misses
			}
			for j := 0; j < n; j++ {
				if err := ref.RunBatch(refItems[j : j+1]); err != nil {
					t.Fatal(err)
				}
				if err := ref.ExitScores(refItems[j:j+1], refScore, nil); err != nil {
					t.Fatal(err)
				}
				if scores[j] != refScore[0] {
					t.Fatalf("%v: batch of %d: tile %d scores %v, MaxBatch 1 runner %v", prec, n, j, scores[j], refScore[0])
				}
			}
			for p, v := range refMask.Data() {
				if mask.Data()[p] != v {
					t.Fatalf("%v: batch of %d: mask differs from the MaxBatch 1 runner's at pixel %d", prec, n, p)
				}
			}
		}
		ref.Close()
		if got := r.PoolStats().Misses; got != warm {
			t.Errorf("%v: pool misses grew from %d to %d after the second call", prec, warm, got)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 100; i++ {
			call(sizes[i%len(sizes)])
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		st := r.PoolStats()
		if st.Puts > st.Gets {
			t.Errorf("%v: pool took back %d buffers but handed out %d", prec, st.Puts, st.Gets)
		}
		if st.Misses != warm {
			t.Errorf("%v: pool misses grew from %d to %d over 200 warm calls", prec, warm, st.Misses)
		}
		if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 256<<10 {
			t.Errorf("%v: live heap grew by %d KB over 200 warm calls", prec, grown>>10)
		}
		r.Close()
	}
}
