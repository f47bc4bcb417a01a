package models

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"
)

// encodeSnapshotV2 writes the legacy (pre-elastic) snapshot format: same
// framing, version 2, and a payload without the GlobalBatch field or the
// flags byte. Kept in the tests as the authoritative record of what v2
// files on disk look like, so the decoder's fallback is pinned against
// real bytes rather than against the current encoder.
func encodeSnapshotV2(t testing.TB, s *TrainState) []byte {
	t.Helper()
	var payload bytes.Buffer
	bw := bufio.NewWriter(&payload)
	le := binary.LittleEndian
	binary.Write(bw, le, s.Step)
	binary.Write(bw, le, uint32(s.Ranks))
	binary.Write(bw, le, s.Seed)
	binary.Write(bw, le, uint32(s.Skipped))
	binary.Write(bw, le, uint32(len(s.Cursors)))
	for _, c := range s.Cursors {
		binary.Write(bw, le, c)
	}
	binary.Write(bw, le, uint32(len(s.Params)))
	for _, p := range s.Params {
		if err := writeString(bw, p.Label); err != nil {
			t.Fatal(err)
		}
		binary.Write(bw, le, uint32(p.Shape.Rank()))
		for _, d := range p.Shape {
			binary.Write(bw, le, uint32(d))
		}
		writeF32s(bw, p.Data)
	}
	if err := encodeOptState(bw, s.Opt, false); err != nil {
		t.Fatal(err)
	}
	if s.Scaler == nil {
		bw.WriteByte(0)
	} else {
		bw.WriteByte(1)
		binary.Write(bw, le, s.Scaler.Scale)
		binary.Write(bw, le, uint32(s.Scaler.CleanSteps))
		binary.Write(bw, le, uint32(s.Scaler.SkippedSteps))
	}
	binary.Write(bw, le, uint32(len(s.History)))
	for _, h := range s.History {
		binary.Write(bw, le, h.Step)
		binary.Write(bw, le, h.Loss)
		if h.Skipped {
			bw.WriteByte(1)
		} else {
			bw.WriteByte(0)
		}
	}
	binary.Write(bw, le, uint32(len(s.ValHistory)))
	for _, v := range s.ValHistory {
		binary.Write(bw, le, v.Step)
		binary.Write(bw, le, v.MeanIoU)
		binary.Write(bw, le, v.Accuracy)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}

	var out bytes.Buffer
	var header [snapshotHeader]byte
	binary.LittleEndian.PutUint32(header[0:], snapshotMagic)
	binary.LittleEndian.PutUint32(header[4:], snapshotVersionV2)
	binary.LittleEndian.PutUint64(header[8:], uint64(payload.Len()))
	out.Write(header[:])
	out.Write(payload.Bytes())
	crc := crc32.New(snapshotCRC)
	crc.Write(header[:])
	crc.Write(payload.Bytes())
	binary.Write(&out, binary.LittleEndian, crc.Sum32())
	return out.Bytes()
}

// TestSnapshotV2Decode: snapshots written before the elastic format (v3)
// still load — the decoder backfills GlobalBatch from the rank count (one
// column per legacy rank) and everything else round-trips unchanged.
func TestSnapshotV2Decode(t *testing.T) {
	want := testState(t)
	raw := encodeSnapshotV2(t, want)
	got, err := DecodeSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding v2 snapshot: %v", err)
	}
	if got.GlobalBatch != want.Ranks {
		t.Fatalf("v2 decode backfilled GlobalBatch=%d, want Ranks=%d", got.GlobalBatch, want.Ranks)
	}
	// The fixture already carries the backfilled value, so the rest must
	// match field for field.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("v2 round-trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// A remap of the legacy state follows the one-column-per-rank rule.
	if err := RemapTrainState(got, 2); err != nil {
		t.Fatal(err)
	}
	if got.Ranks != 2 || got.GlobalBatch != want.Ranks {
		t.Fatalf("remapped v2 state ranks=%d gb=%d", got.Ranks, got.GlobalBatch)
	}
}
