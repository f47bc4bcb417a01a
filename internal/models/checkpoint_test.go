package models

import (
	"bytes"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/tensor"
)

// Weights-only checkpoints are snapshots carrying only Params: captured with
// CaptureParamsInto, written with the snapshot encoder, loaded back with
// RestoreParams by label and shape.

func weightsOnly(t *testing.T, g *graph.Graph) *TrainState {
	t.Helper()
	params, err := CaptureParamsInto(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &TrainState{Params: params}
}

func restoreWeights(raw []byte, g *graph.Graph) error {
	st, err := DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	return RestoreParams(g, st.Params)
}

func TestCheckpointRoundTrip(t *testing.T) {
	cfg := tinyCfg(1, 16, 16)
	src, err := BuildTiramisu(TinyTiramisu(cfg))
	if err != nil {
		t.Fatal(err)
	}
	// Scramble source weights so the round trip is meaningful.
	rng := rand.New(rand.NewSource(8))
	for _, p := range src.Graph.Params() {
		for i := range p.Value.Data() {
			p.Value.Data()[i] = float32(rng.NormFloat64())
		}
	}
	raw := encode(t, weightsOnly(t, src.Graph))

	cfg.Seed = 1234 // different init — must be fully overwritten by load
	dst, err := BuildTiramisu(TinyTiramisu(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreWeights(raw, dst.Graph); err != nil {
		t.Fatal(err)
	}
	sp, dp := src.Graph.Params(), dst.Graph.Params()
	for i := range sp {
		for j, v := range sp[i].Value.Data() {
			if dp[i].Value.Data()[j] != v {
				t.Fatalf("param %s elem %d mismatch after load", sp[i].Label, j)
			}
		}
	}

	// Loaded network must produce identical predictions.
	feeds := feedsFor(src, 3)
	ex1 := graph.NewExecutor(src.Graph, graph.FP32, 1)
	if err := ex1.Forward(feeds); err != nil {
		t.Fatal(err)
	}
	feeds2 := map[*graph.Node]*tensor.Tensor{
		dst.Images: feeds[src.Images], dst.Labels: feeds[src.Labels],
		dst.Weights: feeds[src.Weights],
	}
	ex2 := graph.NewExecutor(dst.Graph, graph.FP32, 1)
	if err := ex2.Forward(feeds2); err != nil {
		t.Fatal(err)
	}
	if ex1.Value(src.Loss).Data()[0] != ex2.Value(dst.Loss).Data()[0] {
		t.Fatal("loaded network computes a different loss")
	}
}

func TestCheckpointFileHelpers(t *testing.T) {
	net, err := BuildTiramisu(TinyTiramisu(tinyCfg(1, 16, 16)))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := SaveSnapshotFile(path, weightsOnly(t, net.Graph)); err != nil {
		t.Fatal(err)
	}
	st, err := LoadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Step != 0 || st.Ranks != 0 || len(st.Cursors) != 0 || st.Opt != nil || st.Scaler != nil {
		t.Fatalf("weights-only file decodes with step %d ranks %d, %d cursors, opt %v, scaler %v",
			st.Step, st.Ranks, len(st.Cursors), st.Opt != nil, st.Scaler != nil)
	}
	if err := RestoreParams(net.Graph, st.Params); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshotFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCheckpointMismatchErrors(t *testing.T) {
	a, err := BuildTiramisu(TinyTiramisu(tinyCfg(1, 16, 16)))
	if err != nil {
		t.Fatal(err)
	}
	raw := encode(t, weightsOnly(t, a.Graph))

	// Different architecture (DeepLab) must refuse the checkpoint.
	b, err := BuildDeepLab(TinyDeepLab(tinyCfg(1, 16, 24)))
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreWeights(raw, b.Graph); err == nil {
		t.Fatal("cross-architecture load accepted")
	}

	// A parameter label the graph does not have.
	renamed := weightsOnly(t, a.Graph)
	renamed.Params[0].Label = "not_a_real_param"
	if err := restoreWeights(encode(t, renamed), a.Graph); err == nil {
		t.Fatal("unknown label accepted")
	}

	// Corrupt magic.
	bad := append([]byte{}, raw...)
	bad[0] ^= 0xFF
	if err := restoreWeights(bad, a.Graph); !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("corrupt magic: got %v, want ErrSnapshotFormat", err)
	}

	// Truncated stream.
	if err := restoreWeights(raw[:len(raw)/2], a.Graph); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("truncated checkpoint: got %v, want ErrSnapshotTruncated", err)
	}
}

func TestCheckpointRefusesSymbolicGraphs(t *testing.T) {
	net, err := BuildTiramisu(PaperTiramisu(paperCfg(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CaptureParamsInto(net.Graph, nil); err == nil {
		t.Fatal("symbolic capture accepted")
	}
}
