package exaclim

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
)

// TestTypedErrorsThroughAPI reaches every re-exported error sentinel
// through the public API and matches it with errors.Is.
func TestTypedErrorsThroughAPI(t *testing.T) {
	ctx := context.Background()
	fields := SyntheticDataset(16, 16, 1, 3).Sample(0).Fields

	t.Run("server closed", func(t *testing.T) {
		s, err := NewServer(serveModel(t))
		if err != nil {
			t.Fatal(err)
		}
		s.Close()
		if _, _, err := s.Segment(ctx, fields); !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Segment after Close: %v", err)
		}
	})

	t.Run("fleet closed", func(t *testing.T) {
		m := serveModel(t)
		ckpt := filepath.Join(t.TempDir(), "weights.snap")
		if err := m.SaveCheckpoint(ckpt); err != nil {
			t.Fatal(err)
		}
		f, err := NewFleet(m)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if _, _, err := f.Segment(ctx, fields); !errors.Is(err, ErrFleetClosed) {
			t.Fatalf("Segment after Close: %v", err)
		}
		if err := f.SwapCheckpoint(ckpt); !errors.Is(err, ErrFleetClosed) {
			t.Fatalf("SwapCheckpoint after Close: %v", err)
		}
	})

	t.Run("unquantizable", func(t *testing.T) {
		// A diverged run leaves non-finite weights; poison one convolution.
		m := serveModel(t)
		for _, p := range m.net.Graph.Params() {
			if p.Value.Shape().Rank() == 4 {
				p.Value.Data()[0] = float32(math.NaN())
				break
			}
		}
		if _, err := m.Segment(fields, SegmentConfig{Precision: INT8}); !errors.Is(err, ErrUnquantizable) {
			t.Fatalf("INT8 Segment of NaN weights: %v", err)
		}
		s, err := NewServer(m, WithServePrecision(INT8))
		if err == nil {
			defer s.Close()
			_, _, err = s.Segment(ctx, fields)
		}
		if !errors.Is(err, ErrUnquantizable) {
			t.Fatalf("INT8 server over NaN weights: %v", err)
		}
	})

	t.Run("node failed", func(t *testing.T) {
		// Both nodes fail: no survivor is left to restart on.
		exp, err := New(append(elasticBase(t.TempDir()), WithRanks(2, 1), WithSteps(4),
			WithNodeFailure(0, 2), WithNodeFailure(1, 2))...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exp.Run(ctx); !errors.Is(err, ErrNodeFailed) {
			t.Fatalf("Run after the last node failed: %v", err)
		}
	})
}
