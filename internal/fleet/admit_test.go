package fleet

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/infer"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestSegmentPreCancelled: a request whose context is already cancelled
// fails with context.Canceled on every call, before admission — it takes
// no admission sequence number (the chaos clock), no tile is decoded, and
// the weight generation is left unpinned. The admission select alone would
// admit it whenever the admission queue has room.
func TestSegmentPreCancelled(t *testing.T) {
	g := graph.New()
	images := g.Input("images", tensor.NCHW(1, 3, 8, 8))
	w := g.Param("w", tensor.Full(tensor.OIHW(3, 3, 1, 1), 0.5))
	net := &infer.Network{Graph: g, Images: images, Logits: g.Apply(nn.NewConv2D(1, 0, 1), images, w)}
	f, err := New(net, Config{
		Shards: 2, ShardReplicas: 1, MaxBatch: 4, QueueDepth: 32,
		Tile: infer.Config{TileH: 8, TileW: 8, Overlap: 1, Precision: graph.FP32},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fields := tensor.New(tensor.Shape{3, 24, 24})
	for i := 0; i < 200; i++ {
		if _, stat, err := f.Segment(ctx, fields); !errors.Is(err, context.Canceled) || !stat.Cancelled {
			t.Fatalf("call %d: err=%v stat=%+v, want context.Canceled", i, err, stat)
		}
	}
	if seq := f.seq.Load(); seq != 0 {
		t.Errorf("pre-cancelled requests advanced the admission sequence to %d", seq)
	}
	if st := f.Stats(); st.Tiles != 0 {
		t.Errorf("pre-cancelled requests decoded %d tiles", st.Tiles)
	}
	f.genMu.Lock()
	inflight := f.cur.inflight.Load()
	f.genMu.Unlock()
	if inflight != 0 {
		t.Errorf("generation in-flight count %d after every request returned, want 0", inflight)
	}
}
