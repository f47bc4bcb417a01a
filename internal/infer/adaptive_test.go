package infer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/climate"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/tensor"
)

// TestQuantizedBatchParityAcrossBatchSizes extends the FP32 batch-parity
// property to the reduced-precision kernel sets: for FP16 and INT8 the
// stitched mask must be bit-identical for MaxBatch 1, small batches with a
// ragged tail, and one batch holding every tile — each batch element
// quantizes and reduces independently, so grouping cannot change results.
func TestQuantizedBatchParityAcrossBatchSizes(t *testing.T) {
	const tile, h, w = 16, 37, 45
	net := buildBNDropNet(t, tile, 0)
	inet := FromModel(net)
	rng := rand.New(rand.NewSource(5))
	fields := tensor.RandNormal(tensor.Shape{4, h, w}, 0, 1, rng)

	for _, prec := range []graph.Precision{graph.FP16, graph.INT8} {
		base := Config{TileH: tile, TileW: tile, Overlap: 2, Precision: prec}
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
				t.Fatalf("%v MaxBatch %d: %v", prec, kb, err)
			}
			if ref == nil {
				ref = mask
				continue
			}
			for i, v := range ref.Data() {
				if mask.Data()[i] != v {
					t.Fatalf("%v MaxBatch %d diverges from serial at pixel %d", prec, kb, i)
				}
			}
		}
	}
}

// logitBounds is the tested max-abs logit error of each reduced-precision
// kernel set against FP32, relative to the corpus's largest FP32 logit
// magnitude — the quantitative half of the precision contract (the
// qualitative half, identical argmax masks, is asserted alongside).
// Measured on the reference corpus: FP16 ≈ 6.5e-4, INT8 ≈ 2.6e-2; the
// bounds carry ~2× headroom.
var logitBounds = map[graph.Precision]float64{graph.FP16: 2e-3, graph.INT8: 6e-2}

// TestQuantizedLogitErrorBoundAndMaskParity pins the precision contract on
// a reference corpus of synthetic CAM5 snapshots: FP16 and INT8 logits stay
// within their documented max-abs error bound of FP32, and the argmax masks
// are identical.
func TestQuantizedLogitErrorBoundAndMaskParity(t *testing.T) {
	const tile, h, w = 16, 33, 40
	inet, err := buildClimateNet(tile)
	if err != nil {
		t.Fatal(err)
	}
	ds := climate.NewDataset(climate.DefaultGenConfig(h, w, 11), 3)

	base := Config{TileH: tile, TileW: tile, Overlap: 2, MaxBatch: 4}
	for _, prec := range []graph.Precision{graph.FP16, graph.INT8} {
		cfg := base
		cfg.Precision = prec
		rq, err := NewRunner(inet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rf, err := NewRunner(inet, base)
		if err != nil {
			t.Fatal(err)
		}
		var maxErr, scale float64
		for i := 0; i < 3; i++ {
			fields := ds.Sample(i).Fields
			wantMask, err := rf.Segment(fields)
			if err != nil {
				t.Fatal(err)
			}
			gotMask, err := rq.Segment(fields)
			if err != nil {
				t.Fatal(err)
			}
			for p, v := range wantMask.Data() {
				if gotMask.Data()[p] != v {
					t.Fatalf("%v: sample %d mask differs from FP32 at pixel %d", prec, i, p)
				}
			}
			e, s := maxLogitDiff(t, rf, rq, fields, base)
			maxErr = math.Max(maxErr, e)
			scale = math.Max(scale, s)
		}
		if maxErr > logitBounds[prec]*scale {
			t.Errorf("%v: max-abs logit error %v exceeds documented bound %v × max |logit| %v",
				prec, maxErr, logitBounds[prec], scale)
		}
		if maxErr == 0 && prec == graph.INT8 {
			t.Errorf("%v: logit error is exactly zero — quantized kernels did not run", prec)
		}
		rq.Close()
		rf.Close()
	}
}

// maxLogitDiff runs the first few planned tiles through both runners'
// full-decode executors and returns the largest absolute logit difference
// plus the largest reference-logit magnitude (the relative bound's scale).
func maxLogitDiff(t *testing.T, a, b *Runner, fields *tensor.Tensor, cfg Config) (worst, scale float64) {
	t.Helper()
	fs := fields.Shape()
	plan, err := Plan(fs[1], fs[2], cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) > 4 {
		plan = plan[:4]
	}
	la := tileLogits(t, a, fields, plan)
	lb := tileLogits(t, b, fields, plan)
	for i := range la {
		worst = math.Max(worst, math.Abs(la[i]-lb[i]))
		scale = math.Max(scale, math.Abs(la[i]))
	}
	return worst, scale
}

// tileLogits forwards the tiles one at a time through the runner's
// full-decode branch and concatenates the raw logits.
func tileLogits(t *testing.T, r *Runner, fields *tensor.Tensor, plan []Tile) []float64 {
	t.Helper()
	var out []float64
	for _, tl := range plan {
		logits, err := r.forward(&r.decode, []BatchItem{{Fields: fields, Tile: tl}})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range logits.Data() {
			out = append(out, float64(v))
		}
	}
	return out
}

// buildClimateNet builds an untrained tiny Tiramisu over the climate
// channel count, exit tap included.
func buildClimateNet(tile int) (*Network, error) {
	net, err := models.BuildTiramisu(models.TinyTiramisu(models.Config{
		BatchSize: 1, InChannels: climate.NumChannels, NumClasses: climate.NumClasses,
		Height: tile, Width: tile, Seed: 3,
	}))
	if err != nil {
		return nil, err
	}
	return FromModel(net), nil
}

// TestExitScoresBatchInvariant asserts exit scores are bit-identical across
// batch groupings, with and without a confidence head.
func TestExitScoresBatchInvariant(t *testing.T) {
	const tile, h, w = 16, 37, 45
	net := buildBNDropNet(t, tile, 0)
	inet := FromModel(net)
	if inet.Exit == nil {
		t.Fatal("test network has no exit tap")
	}
	rng := rand.New(rand.NewSource(9))
	fields := tensor.RandNormal(tensor.Shape{4, h, w}, 0, 1, rng)
	cfg := Config{TileH: tile, TileW: tile, Overlap: 2, MaxBatch: 16}
	r, err := NewRunner(inet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	plan, err := Plan(h, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	items := make([]BatchItem, len(plan))
	for i, tl := range plan {
		items[i] = BatchItem{Fields: fields, Tile: tl}
	}
	cp := inet.Exit.Shape[1]
	head := &ExitHead{Weights: make([]float64, featuresPerChannel*cp), Bias: 0.25}
	hr := rand.New(rand.NewSource(1))
	for i := range head.Weights {
		head.Weights[i] = hr.NormFloat64()
	}
	for _, h := range []*ExitHead{nil, head} {
		ref := make([]float64, len(items))
		if err := r.ExitScores(items, ref, h); err != nil {
			t.Fatal(err)
		}
		for _, kb := range []int{1, 3, 5} {
			got := make([]float64, len(items))
			for start := 0; start < len(items); start += kb {
				end := min(start+kb, len(items))
				if err := r.ExitScores(items[start:end], got[start:end], h); err != nil {
					t.Fatal(err)
				}
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("head=%v batch %d: score %d is %v, serial %v", h != nil, kb, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestCalibrateNeverExitsStormTiles is the calibration guarantee: scoring
// every calibration tile with the fitted head, no tile whose full decode
// holds a storm pixel scores below the returned threshold — so every tile
// that would exit is one whose keep region a full decode writes as
// background anyway.
func TestCalibrateNeverExitsStormTiles(t *testing.T) {
	const tile, h, w = 16, 48, 48
	inet, err := buildClimateNet(tile)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TileH: tile, TileW: tile, Overlap: 2, MaxBatch: 8}
	r, err := NewRunner(inet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ds := climate.NewDataset(climate.DefaultGenConfig(h, w, 3), 3)
	fields := make([]*tensor.Tensor, 3)
	for i := range fields {
		fields[i] = ds.Sample(i).Fields
	}
	cal, err := r.Calibrate(fields, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Tiles == 0 {
		t.Fatal("calibration saw no tiles")
	}
	if cal.StormTiles > 0 && cal.MinStormScore < cal.Threshold {
		t.Fatalf("min storm score %v below threshold %v", cal.MinStormScore, cal.Threshold)
	}
	scores := make([]float64, cfg.MaxBatch)
	for _, f := range fields {
		mask, err := r.Segment(f)
		if err != nil {
			t.Fatal(err)
		}
		fs := f.Shape()
		plan, err := Plan(fs[1], fs[2], cfg)
		if err != nil {
			t.Fatal(err)
		}
		for start := 0; start < len(plan); start += cfg.MaxBatch {
			end := min(start+cfg.MaxBatch, len(plan))
			items := make([]BatchItem, 0, cfg.MaxBatch)
			for _, tl := range plan[start:end] {
				items = append(items, BatchItem{Fields: f, Tile: tl, Mask: mask})
			}
			if err := r.ExitScores(items, scores, &cal.Head); err != nil {
				t.Fatal(err)
			}
			for i, it := range items {
				if scores[i] < cal.Threshold && stormInKeep(mask, it.Tile) {
					t.Fatalf("storm tile at (%d,%d) scores %v below threshold %v",
						it.Tile.Y, it.Tile.X, scores[i], cal.Threshold)
				}
			}
		}
	}
}

// TestCalibrateMarginLowersThreshold: margin < 1 must not raise the
// threshold, and must still never exit storm tiles.
func TestCalibrateMarginLowersThreshold(t *testing.T) {
	const tile, h, w = 16, 32, 32
	inet, err := buildClimateNet(tile)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TileH: tile, TileW: tile, Overlap: 2, MaxBatch: 4}
	r, err := NewRunner(inet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fields := []*tensor.Tensor{climate.NewDataset(climate.DefaultGenConfig(h, w, 5), 1).Sample(0).Fields}
	full, err := r.Calibrate(fields, 1)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := r.Calibrate(fields, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Threshold > full.Threshold {
		t.Fatalf("margin 0.5 raised the threshold: %v > %v", tight.Threshold, full.Threshold)
	}
	if tight.ExitRate > full.ExitRate {
		t.Fatalf("margin 0.5 raised the exit rate: %v > %v", tight.ExitRate, full.ExitRate)
	}
}

// TestCalibrateValidates covers the error paths: margin out of range, an
// empty calibration set, and a network without an exit tap.
func TestCalibrateValidates(t *testing.T) {
	const tile = 16
	inet, err := buildClimateNet(tile)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{TileH: tile, TileW: tile, Overlap: 2, MaxBatch: 4}
	r, err := NewRunner(inet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fields := []*tensor.Tensor{climate.NewDataset(climate.DefaultGenConfig(tile, tile, 5), 1).Sample(0).Fields}
	if _, err := r.Calibrate(fields, -0.1); err == nil {
		t.Error("negative margin accepted")
	}
	if _, err := r.Calibrate(fields, 1.5); err == nil {
		t.Error("margin above 1 accepted")
	}
	if _, err := r.Calibrate(nil, 1); err == nil {
		t.Error("empty calibration set accepted")
	}

	noExit := *inet
	noExit.Exit = nil
	rn, err := NewRunner(&noExit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rn.Close()
	if rn.HasExit() {
		t.Error("HasExit true without a tap")
	}
	if _, err := rn.Calibrate(fields, 1); err == nil || !strings.Contains(err.Error(), "exit tap") {
		t.Errorf("calibration without exit tap: %v", err)
	}
	if err := rn.ExitScores([]BatchItem{{Fields: fields[0], Tile: Tile{KeepX1: tile, KeepY1: tile}}}, make([]float64, 1), nil); err == nil {
		t.Error("ExitScores without exit tap accepted")
	}
}

// TestExitScoresValidatesHeadShape: a head whose weight count does not
// match the tap's pooled feature count must be rejected, not silently
// truncated.
func TestExitScoresValidatesHeadShape(t *testing.T) {
	const tile = 16
	net := buildBNDropNet(t, tile, 0)
	inet := FromModel(net)
	cfg := Config{TileH: tile, TileW: tile, Overlap: 2, MaxBatch: 2}
	r, err := NewRunner(inet, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	rng := rand.New(rand.NewSource(2))
	fields := tensor.RandNormal(tensor.Shape{4, tile, tile}, 0, 1, rng)
	items := []BatchItem{{Fields: fields, Tile: Tile{KeepX1: tile, KeepY1: tile}}}
	bad := &ExitHead{Weights: []float64{1, 2, 3}}
	if err := r.ExitScores(items, make([]float64, 1), bad); err == nil || !strings.Contains(err.Error(), "weights") {
		t.Errorf("mismatched head accepted: %v", err)
	}
}

// TestWriteBackgroundZeroesKeepRegionOnly: the exit path's mask write must
// cover exactly the keep region — overlap margins belong to neighbors.
func TestWriteBackgroundZeroesKeepRegionOnly(t *testing.T) {
	mask := tensor.Full(tensor.Shape{8, 8}, 7)
	it := BatchItem{
		Mask: mask,
		Tile: Tile{Y: 2, X: 2, KeepY0: 1, KeepY1: 3, KeepX0: 1, KeepX1: 3},
	}
	WriteBackground(it)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			inKeep := y >= 3 && y < 5 && x >= 3 && x < 5
			v := mask.Data()[y*8+x]
			if inKeep && v != 0 {
				t.Fatalf("keep pixel (%d,%d) not zeroed", y, x)
			}
			if !inKeep && v != 7 {
				t.Fatalf("pixel (%d,%d) outside keep region clobbered", y, x)
			}
		}
	}
}

// TestRidgeFitInterpolatesSeparableData sanity-checks the closed-form
// solver on a case with a known answer.
func TestRidgeFitInterpolatesSeparableData(t *testing.T) {
	X := [][]float64{{0, 1}, {0, 2}, {1, 0.5}, {1, 1.5}}
	y := []bool{false, false, true, true}
	w, b := ridgeFit(X, y, 1e-9)
	for i, u := range X {
		s := b
		for c := range u {
			s += w[c] * u[c]
		}
		want := 0.0
		if y[i] {
			want = 1
		}
		if math.Abs(s-want) > 1e-6 {
			t.Fatalf("sample %d: predicted %v, want %v", i, s, want)
		}
	}
}
