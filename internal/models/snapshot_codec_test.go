package models

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"repro/internal/hpfloat"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// goldenF32s fills n values in [-scale, scale) from a fixed integer
// sequence: integer steps and one rounding per value, no transcendental or
// kernel math, so the same floats come out on every platform and ISA leg.
func goldenF32s(n int, seed uint32, scale float32) []float32 {
	out := make([]float32, n)
	x := seed*2654435761 + 1
	for i := range out {
		x = x*1664525 + 1013904223
		out[i] = float32(int32(x)>>8) / (1 << 23) * scale
	}
	return out
}

// goldenSlot names one slot of the hand-built optimizer tree.
func goldenSlot(name string, n int, seed uint32, scale float32) opt.Slot {
	return opt.Slot{Name: name, Data: goldenF32s(n, seed, scale)}
}

// codecGoldenState hand-builds a TrainState that reaches every branch of the
// snapshot codec: a lag → larc → adam optimizer tree with Adam m/ and v/
// slots, one moment slot holding a NaN (compact's lossless fallback), a
// two-set LagN queue, a scaler, and both histories.
func codecGoldenState() *TrainState {
	vw := goldenSlot("v/conv/w", 108, 2, 1e-3)
	for i, x := range vw.Data {
		vw.Data[i] = x * x // second moments are non-negative
	}
	mb := goldenSlot("m/conv/b", 4, 3, 1e-2)
	mb.Data[2] = float32(math.NaN())
	adam := &opt.State{Kind: "adam", Step: 7, Slots: []opt.Slot{
		mb,
		goldenSlot("m/conv/w", 108, 1, 1e-2),
		goldenSlot("v/conv/b", 4, 4, 1e-4),
		vw,
	}}
	lag := &opt.State{Kind: "lag", Queue: [][]opt.Slot{
		{goldenSlot("conv/b", 4, 5, 0.1), goldenSlot("conv/w", 108, 6, 0.1)},
		{goldenSlot("conv/b", 4, 7, 0.1), goldenSlot("conv/w", 108, 8, 0.1)},
	}, Base: &opt.State{Kind: "larc", Base: adam}}
	return &TrainState{
		Step:        7,
		Ranks:       2,
		GlobalBatch: 4,
		Seed:        21,
		Skipped:     1,
		Cursors:     []uint64{7, 7, 7, 7},
		Params: []ParamState{
			{Label: "conv/w", Shape: tensor.Shape{4, 3, 3, 3}, Data: goldenF32s(108, 9, 0.2)},
			{Label: "conv/b", Shape: tensor.Shape{4}, Data: goldenF32s(4, 10, 0.05)},
		},
		Opt:    lag,
		Scaler: &hpfloat.ScalerState{Scale: 1024, CleanSteps: 3, SkippedSteps: 1},
		History: []StepRecord{
			{Step: 5, Loss: 0.93}, {Step: 6, Loss: 0.71, Skipped: true},
		},
		ValHistory: []ValRecord{{Step: 6, MeanIoU: 0.41, Accuracy: 0.83}},
	}
}

// codecGoldenCases are the three encodings the golden test pins and the fuzz
// target seeds from: the streaming layout, the compacted layout, and a
// weights-only state (what Model.SaveCheckpoint writes).
func codecGoldenCases() []struct {
	name  string
	state *TrainState
} {
	plain := codecGoldenState()
	compact := codecGoldenState()
	compact.Compact = true
	weights := &TrainState{Params: codecGoldenState().Params}
	return []struct {
		name  string
		state *TrainState
	}{{"plain", plain}, {"compact", compact}, {"weights", weights}}
}

// TestSnapshotCodecGolden pins the bytes the snapshot encoder writes for
// each layout, so a refactor of the codec cannot silently change the file
// format, and checks each encoding decodes back: exactly for the lossless
// sections, within one quantization step for compacted Adam moments.
func TestSnapshotCodecGolden(t *testing.T) {
	golden := map[string]string{
		"plain":   "c7f83dccd7a58a75baa40a75b2bd9ef92867a6d902824c0c2e851f2a0f5f5a1e",
		"compact": "a816e5626947e5b39b9241d3dc0db72de0155d1a8cedb9900bb8c261b7ee8a7c",
		"weights": "95e93eda726d90ad242e8229c2ae1e6470dabad7a1df5d4dbd45e718e2503e6f",
	}
	for _, c := range codecGoldenCases() {
		t.Run(c.name, func(t *testing.T) {
			raw := encode(t, c.state)
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:]); got != golden[c.name] {
				t.Errorf("encoding sha256 %s, golden %s", got, golden[c.name])
			}
			got, err := DecodeSnapshot(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			sameTrainState(t, got, c.state)
		})
	}
}

// sameTrainState compares a decoded state with the one encoded. Floats
// compare by bit pattern (NaN included); compacted Adam moments may differ
// by one quantization step of their slot's range.
func sameTrainState(t *testing.T, got, want *TrainState) {
	t.Helper()
	gb := want.GlobalBatch
	if gb == 0 {
		gb = want.Ranks
	}
	if got.Step != want.Step || got.Ranks != want.Ranks || got.GlobalBatch != gb ||
		got.Seed != want.Seed || got.Skipped != want.Skipped || got.Compact != want.Compact {
		t.Fatalf("meta: got step %d ranks %d gb %d seed %d skipped %d compact %v",
			got.Step, got.Ranks, got.GlobalBatch, got.Seed, got.Skipped, got.Compact)
	}
	if len(got.Cursors) != len(want.Cursors) {
		t.Fatalf("%d cursors, want %d", len(got.Cursors), len(want.Cursors))
	}
	for i, c := range want.Cursors {
		if got.Cursors[i] != c {
			t.Fatalf("cursor %d = %d, want %d", i, got.Cursors[i], c)
		}
	}
	if len(got.Params) != len(want.Params) {
		t.Fatalf("%d params, want %d", len(got.Params), len(want.Params))
	}
	for i, p := range want.Params {
		g := got.Params[i]
		if g.Label != p.Label || !g.Shape.Equal(p.Shape) {
			t.Fatalf("param %d is %q %v, want %q %v", i, g.Label, g.Shape, p.Label, p.Shape)
		}
		sameF32s(t, "param "+p.Label, g.Data, p.Data, 0)
	}
	sameOptState(t, got.Opt, want.Opt, want.Compact)
	switch {
	case (got.Scaler == nil) != (want.Scaler == nil):
		t.Fatalf("scaler presence %v, want %v", got.Scaler != nil, want.Scaler != nil)
	case want.Scaler != nil && *got.Scaler != *want.Scaler:
		t.Fatalf("scaler %+v, want %+v", *got.Scaler, *want.Scaler)
	}
	if len(got.History) != len(want.History) || len(got.ValHistory) != len(want.ValHistory) {
		t.Fatalf("histories %d/%d, want %d/%d", len(got.History), len(got.ValHistory),
			len(want.History), len(want.ValHistory))
	}
	for i, h := range want.History {
		if got.History[i] != h {
			t.Fatalf("history %d = %+v, want %+v", i, got.History[i], h)
		}
	}
	for i, v := range want.ValHistory {
		if got.ValHistory[i] != v {
			t.Fatalf("validation history %d = %+v, want %+v", i, got.ValHistory[i], v)
		}
	}
}

func sameOptState(t *testing.T, got, want *opt.State, compact bool) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("optimizer state presence %v, want %v", got != nil, want != nil)
	}
	if want == nil {
		return
	}
	if got.Kind != want.Kind || got.Step != want.Step ||
		len(got.Slots) != len(want.Slots) || len(got.Queue) != len(want.Queue) {
		t.Fatalf("optimizer %q step %d: %d slots %d queued, want %q step %d: %d slots %d queued",
			got.Kind, got.Step, len(got.Slots), len(got.Queue),
			want.Kind, want.Step, len(want.Slots), len(want.Queue))
	}
	for i, s := range want.Slots {
		tol := float32(0)
		if compact && want.Kind == "adam" {
			tol = quantStep(s.Data)
		}
		sameSlot(t, got.Slots[i], s, tol)
	}
	for q, set := range want.Queue {
		if len(got.Queue[q]) != len(set) {
			t.Fatalf("queue set %d has %d slots, want %d", q, len(got.Queue[q]), len(set))
		}
		for i, s := range set {
			sameSlot(t, got.Queue[q][i], s, 0)
		}
	}
	sameOptState(t, got.Base, want.Base, compact)
}

func sameSlot(t *testing.T, got, want opt.Slot, tol float32) {
	t.Helper()
	if got.Name != want.Name {
		t.Fatalf("slot %q, want %q", got.Name, want.Name)
	}
	sameF32s(t, "slot "+want.Name, got.Data, want.Data, tol)
}

// quantStep is the 8-bit range-quantization step of xs, or 0 when xs holds
// a non-finite value (those slots are stored losslessly).
func quantStep(xs []float32) float32 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		v := float64(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return float32((hi - lo) / 255)
}

// sameF32s compares bit for bit when tol is 0, within tol otherwise.
func sameF32s(t *testing.T, what string, got, want []float32, tol float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if tol == 0 {
			if math.Float32bits(g) != math.Float32bits(w) {
				t.Fatalf("%s[%d] = %v, want %v bit for bit", what, i, g, w)
			}
		} else if math.Abs(float64(g)-float64(w)) > float64(tol) {
			t.Fatalf("%s[%d] = %v, want %v within %v", what, i, g, w, tol)
		}
	}
}

// frameSnapshot wraps a hand-built v3 payload in a valid header and CRC, so
// the decoder gets past the checksum and must reject the fields themselves.
func frameSnapshot(payload []byte) []byte {
	var raw bytes.Buffer
	var header [snapshotHeader]byte
	le := binary.LittleEndian
	le.PutUint32(header[0:], snapshotMagic)
	le.PutUint32(header[4:], snapshotVersion)
	le.PutUint64(header[8:], uint64(len(payload)))
	raw.Write(header[:])
	raw.Write(payload)
	binary.Write(&raw, le, crc32.Checksum(raw.Bytes(), snapshotCRC))
	return raw.Bytes()
}

// hostileCompactSnapshots are CRC-valid compacted files whose sections
// declare 2^28 elements but carry an empty DEFLATE stream: one as a
// lossless parameter block (1 GiB declared), one as an 8-bit Adam moment
// slot (256 MiB declared).
func hostileCompactSnapshots() map[string][]byte {
	le := binary.LittleEndian
	empty := deflateBytes(nil)
	meta := func(w *bytes.Buffer) {
		binary.Write(w, le, uint64(1)) // step
		binary.Write(w, le, uint32(1)) // ranks
		binary.Write(w, le, uint32(1)) // global batch
		binary.Write(w, le, int64(1))  // seed
		binary.Write(w, le, uint32(0)) // skipped
		w.WriteByte(1)                 // flags: compacted
		binary.Write(w, le, uint32(0)) // no cursors
	}

	var param bytes.Buffer
	meta(&param)
	binary.Write(&param, le, uint32(1)) // one param
	writeString(&param, "x")
	binary.Write(&param, le, uint32(1)) // rank 1
	binary.Write(&param, le, uint32(compactMaxElems))
	binary.Write(&param, le, uint32(len(empty)))
	param.Write(empty)

	var slot bytes.Buffer
	meta(&slot)
	binary.Write(&slot, le, uint32(0)) // no params
	slot.WriteByte(1)                  // optimizer state present
	writeString(&slot, "adam")
	binary.Write(&slot, le, int64(1))  // optimizer step
	binary.Write(&slot, le, uint32(1)) // one slot
	writeString(&slot, "m/x")
	binary.Write(&slot, le, uint32(compactMaxElems))
	slot.WriteByte(slotQuant8)
	binary.Write(&slot, le, float32(0)) // lo
	binary.Write(&slot, le, float32(1)) // step
	binary.Write(&slot, le, uint32(len(empty)))
	slot.Write(empty)

	return map[string][]byte{
		"param": frameSnapshot(param.Bytes()),
		"slot":  frameSnapshot(slot.Bytes()),
	}
}

// TestSnapshotHostileCompactSizeAllocatesLittle: a tiny CRC-valid file that
// declares a huge compacted section must fail typed without allocating the
// declared size first — the decoder's memory follows the bytes present.
func TestSnapshotHostileCompactSizeAllocatesLittle(t *testing.T) {
	for name, raw := range hostileCompactSnapshots() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeSnapshot(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("%s (%d bytes): got %v, want ErrSnapshotCorrupt", name, len(raw), err)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Fatalf("%s (%d bytes): decoding allocated %d bytes, want under 1 MiB", name, len(raw), alloc)
		}
	}
}

// FuzzDecodeSnapshot: whatever the bytes, the decoder never panics, and
// every failure is one of the typed snapshot errors. The seeds — the three
// golden encodings, a v2 file, a retired CKPT file, the hostile compacted
// files, and truncations of each — run under plain go test.
func FuzzDecodeSnapshot(f *testing.F) {
	seeds := [][]byte{encodeSnapshotV2(f, codecGoldenState()), legacyCKPT}
	for _, c := range codecGoldenCases() {
		seeds = append(seeds, encode(f, c.state))
	}
	for _, raw := range hostileCompactSnapshots() {
		seeds = append(seeds, raw)
	}
	for _, raw := range seeds {
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-1])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		_, err := DecodeSnapshot(bytes.NewReader(raw))
		if err != nil && !errors.Is(err, ErrSnapshotFormat) && !errors.Is(err, ErrSnapshotVersion) &&
			!errors.Is(err, ErrSnapshotTruncated) && !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
	})
}
