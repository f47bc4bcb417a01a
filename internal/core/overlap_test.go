package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/mpi"
)

// runMode trains cfg with the serial exchange driver when serial is set and
// the overlapped one otherwise.
func runMode(t *testing.T, cfg Config, serial bool) *Result {
	t.Helper()
	cfg.serialExchange = serial
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("serial=%v exchange: %v", serial, err)
	}
	return res
}

// TestOverlapSerialBitParity is the PR's acceptance invariant: overlapped
// training produces bit-identical loss histories AND bit-identical final
// weights to the serial exchange at FP32, at 1, 2, and 8 ranks — the fixed
// bucket summation order makes when-the-reduce-runs irrelevant to values.
func TestOverlapSerialBitParity(t *testing.T) {
	for _, ranks := range []int{1, 2, 8} {
		cfg := baseConfig(ranks, 5)
		serial := runMode(t, cfg, true)
		overlap := runMode(t, cfg, false)

		if len(serial.History) != len(overlap.History) {
			t.Fatalf("%d ranks: history lengths differ", ranks)
		}
		for i := range serial.History {
			if serial.History[i].Loss != overlap.History[i].Loss {
				t.Fatalf("%d ranks step %d: serial loss %v != overlapped %v",
					ranks, i, serial.History[i].Loss, overlap.History[i].Loss)
			}
		}
		sp, op := serial.Net.Graph.Params(), overlap.Net.Graph.Params()
		if len(sp) != len(op) {
			t.Fatalf("%d ranks: param counts differ", ranks)
		}
		for i := range sp {
			sd, od := sp[i].Value.Data(), op[i].Value.Data()
			for j := range sd {
				if sd[j] != od[j] {
					t.Fatalf("%d ranks: weight %s[%d] differs: serial %v != overlapped %v",
						ranks, sp[i].Label, j, sd[j], od[j])
				}
			}
		}
	}
}

// TestOverlapReportsStats checks the new observability surface: overlap
// fraction within [0,1], wire bytes and bucket counts recorded.
func TestOverlapReportsStats(t *testing.T) {
	cfg := baseConfig(4, 6)
	res := runMode(t, cfg, false)
	if res.CtlStats.Batches == 0 {
		t.Fatal("no fusion buckets recorded")
	}
	if res.CtlStats.WireBytes == 0 {
		t.Fatal("wire bytes not recorded")
	}
	for _, h := range res.History {
		if h.OverlapFrac < 0 || h.OverlapFrac > 1 {
			t.Fatalf("step %d overlap fraction %v outside [0,1]", h.Step, h.OverlapFrac)
		}
	}
	if res.OverlapFrac < 0 || res.OverlapFrac > 1 {
		t.Fatalf("mean overlap fraction %v outside [0,1]", res.OverlapFrac)
	}
	// Serial runs must report zero overlap.
	ser := runMode(t, baseConfig(2, 3), true)
	if ser.OverlapFrac != 0 {
		t.Fatalf("serial exchange reports overlap %v", ser.OverlapFrac)
	}
}

// TestFP16WireTrainingConverges runs multi-rank training with the FP16
// gradient wire: losses stay finite and still improve, and the wire-byte
// accounting shows the halved width.
func TestFP16WireTrainingConverges(t *testing.T) {
	cfg := baseConfig(4, 16)
	cfg.Wire = mpi.WireFP16
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.History {
		if math.IsNaN(h.Loss) || math.IsInf(h.Loss, 0) {
			t.Fatal("FP16-wire training went non-finite")
		}
	}
	if !LossImproved(res.History, 0.05) {
		t.Fatalf("FP16-wire training did not improve: %.4f → %.4f",
			res.History[0].Loss, res.FinalLoss)
	}

	full := runMode(t, baseConfig(4, 16), false)
	if res.CtlStats.WireBytes*2 != full.CtlStats.WireBytes {
		t.Fatalf("FP16 wire bytes %d, FP32 %d: want exactly half",
			res.CtlStats.WireBytes, full.CtlStats.WireBytes)
	}
}

// TestOverlappedCancellation cancels mid-run under the overlapped exchange:
// the vote rides the first bucket, and every rank exits at the same step
// boundary without deadlocking a partner mid-collective.
func TestOverlappedCancellation(t *testing.T) {
	for _, serial := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		cfg := baseConfig(4, 10_000)
		cfg.serialExchange = serial
		cfg.Ctx = ctx
		const stopAfter = 2
		cfg.OnStep = func(s StepStat) {
			if s.Step == stopAfter {
				cancel()
			}
		}
		res, err := Train(cfg)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("serial=%v: err = %v, want context.Canceled", serial, err)
		}
		if res == nil || len(res.History) <= stopAfter || len(res.History) > stopAfter+3 {
			t.Fatalf("serial=%v: partial history %d steps, want just past %d",
				serial, len(res.History), stopAfter)
		}
	}
}
