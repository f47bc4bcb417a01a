package models

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/hpfloat"
	"repro/internal/opt"
)

// testState builds a representative TrainState from a real tiny network:
// weights, a nested lag→larc→adam optimizer tree with a queued gradient
// set, scaler state, and per-rank cursors.
func testState(t *testing.T) *TrainState {
	t.Helper()
	net, err := BuildTiramisu(TinyTiramisu(tinyCfg(1, 16, 16)))
	if err != nil {
		t.Fatal(err)
	}
	params, err := CaptureParamsInto(net.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	optParams := make([]opt.Param, 0, len(net.Graph.Params()))
	for _, p := range net.Graph.Params() {
		optParams = append(optParams, opt.Param{Name: p.Label, Value: p.Value, Grad: p.Value})
	}
	lag := opt.NewLag(opt.NewLARC(opt.NewAdam(1e-3), 0.01), 1)
	lag.Step(optParams) // warms the Adam moments and queues one lagged set
	scaler := hpfloat.NewLossScaler()
	scaler.Update(true) // non-trivial backoff state
	sc := scaler.CaptureState()
	return &TrainState{
		Step:        7,
		Ranks:       4,
		GlobalBatch: 4,
		Seed:        21,
		Skipped:     2,
		Cursors:     []uint64{7, 7, 7, 7},
		Params:      params,
		Opt:         lag.CaptureState(),
		Scaler:      &sc,
		History: []StepRecord{
			{Step: 5, Loss: 0.93, Skipped: false},
			{Step: 6, Loss: 0.71, Skipped: true},
		},
		ValHistory: []ValRecord{{Step: 6, MeanIoU: 0.41, Accuracy: 0.83}},
	}
}

func encode(t testing.TB, st *TrainState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := st.EncodeSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	st := testState(t)
	got, err := DecodeSnapshot(bytes.NewReader(encode(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatal("decoded snapshot differs from the encoded state")
	}
	// Determinism: two encodings of the same state are byte-identical (the
	// bit-exact-resume tests compare snapshot files directly).
	if !bytes.Equal(encode(t, st), encode(t, st)) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

func TestSnapshotTruncationFailsTyped(t *testing.T) {
	raw := encode(t, testState(t))
	// Every strict prefix must fail as truncated — never panic, never
	// decode: the header's length field catches cuts in the payload and
	// the trailing CRC, the header size check catches cuts inside it.
	for _, cut := range []int{0, 3, snapshotHeader - 1, snapshotHeader,
		snapshotHeader + 10, len(raw) / 2, len(raw) - 5, len(raw) - 1} {
		_, err := DecodeSnapshot(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("cut at %d of %d: got %v, want ErrSnapshotTruncated", cut, len(raw), err)
		}
	}
}

func TestSnapshotCorruptionFailsTyped(t *testing.T) {
	raw := encode(t, testState(t))
	// Flip one byte at a time across representative offsets in the payload
	// and the CRC trailer.
	for _, off := range []int{snapshotHeader, snapshotHeader + 17, len(raw) / 2,
		len(raw) - 5, len(raw) - 1} {
		bad := append([]byte(nil), raw...)
		bad[off] ^= 0x40
		_, err := DecodeSnapshot(bytes.NewReader(bad))
		if !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("flip at %d: got %v, want ErrSnapshotCorrupt", off, err)
		}
	}
}

func TestSnapshotHostileLengthFailsTyped(t *testing.T) {
	// A header whose payload-length field is near 2^64 must not wrap the
	// bounds arithmetic into a panicking slice — typed truncation error.
	for _, plen := range []uint64{
		^uint64(0), ^uint64(0) - 17, ^uint64(0) - 19, 1 << 40,
	} {
		raw := make([]byte, 32)
		binary.LittleEndian.PutUint32(raw[0:], snapshotMagic)
		binary.LittleEndian.PutUint32(raw[4:], snapshotVersion)
		binary.LittleEndian.PutUint64(raw[8:], plen)
		_, err := DecodeSnapshot(bytes.NewReader(raw))
		if !errors.Is(err, ErrSnapshotTruncated) {
			t.Fatalf("plen %#x: got %v, want ErrSnapshotTruncated", plen, err)
		}
	}
}

func TestSnapshotHostileShapeFailsTyped(t *testing.T) {
	// A CRC-valid snapshot whose param shape multiplies to 2^62 elements
	// (2^31 × 2^31) must fail typed, not panic in make(): CRC-32C is not
	// cryptographic, so "checksum passes" never implies "fields are sane".
	var payload bytes.Buffer
	le := binary.LittleEndian
	binary.Write(&payload, le, uint64(1)) // step
	binary.Write(&payload, le, uint32(1)) // ranks
	binary.Write(&payload, le, uint32(1)) // global batch
	binary.Write(&payload, le, int64(1))  // seed
	binary.Write(&payload, le, uint32(0)) // skipped
	payload.WriteByte(0)                  // flags: uncompacted
	binary.Write(&payload, le, uint32(0)) // no cursors
	binary.Write(&payload, le, uint32(1)) // one param
	binary.Write(&payload, le, uint32(1)) // label length
	payload.WriteByte('x')                // label
	binary.Write(&payload, le, uint32(2)) // rank 2
	binary.Write(&payload, le, uint32(1<<31))
	binary.Write(&payload, le, uint32(1<<31))

	_, err := DecodeSnapshot(bytes.NewReader(frameSnapshot(payload.Bytes())))
	if !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("got %v, want ErrSnapshotCorrupt", err)
	}
}

func TestSnapshotVersionSkewFailsTyped(t *testing.T) {
	raw := encode(t, testState(t))
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[4:], snapshotVersion+1)
	_, err := DecodeSnapshot(bytes.NewReader(bad))
	if !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("got %v, want ErrSnapshotVersion", err)
	}
}

func TestSnapshotForeignFileFailsTyped(t *testing.T) {
	for _, raw := range [][]byte{
		[]byte("this is not a snapshot, it is a sentence padded to be long enough"),
		legacyCKPT, // the retired weights-only format
	} {
		_, err := DecodeSnapshot(bytes.NewReader(raw))
		if !errors.Is(err, ErrSnapshotFormat) {
			t.Fatalf("got %v, want ErrSnapshotFormat", err)
		}
	}
}

// legacyCKPT is the head of a file in the retired weights-only format:
// magic "CKPT", one parameter labelled "w" of shape [2], no checksum. Those
// files are no longer readable and must be refused as foreign.
var legacyCKPT = []byte{
	'T', 'P', 'K', 'C', // magic 0x434B5054, little endian
	1, 0, 0, 0, // parameter count
	1, 0, 0, 0, 'w', // label
	1, 0, 0, 0, 2, 0, 0, 0, // rank 1, shape [2]
	0, 0, 0x80, 0x3f, 0, 0, 0, 0x40, // 1.0, 2.0
}

func TestSnapshotRetentionAndLatest(t *testing.T) {
	dir := t.TempDir()
	st := testState(t)
	for _, step := range []uint64{5, 10, 15, 20, 25} {
		st.Step = step
		// The last commit runs the durable path (file + directory fsync).
		if _, err := WriteSnapshotAtomic(dir, st, step == 25); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{snapshotName(20), snapshotName(25)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("after pruning: %v, want %v", names, want)
	}
	_, step, err := LatestSnapshot(dir)
	if err != nil || step != 25 {
		t.Fatalf("latest = step %d, err %v; want 25", step, err)
	}
	// keep < 1 clamps to 1: the only recovery point is never deleted.
	if err := PruneSnapshots(dir, 0); err != nil {
		t.Fatal(err)
	}
	if names, _ = listSnapshots(dir); len(names) != 1 || names[0] != snapshotName(25) {
		t.Fatalf("prune(0) left %v, want only step 25", names)
	}
}

func TestSnapshotCrashWindowLeavesCommittedFilesIntact(t *testing.T) {
	dir := t.TempDir()
	st := testState(t)
	st.Step = 10
	committed, err := WriteSnapshotAtomic(dir, st, false)
	if err != nil {
		t.Fatal(err)
	}
	// A writer killed inside the crash window leaves a half-written *.tmp
	// under the NEXT snapshot's name. Readers must ignore it and the
	// committed file must stay authoritative.
	orphan := filepath.Join(dir, snapshotName(20)+".tmp")
	if err := os.WriteFile(orphan, []byte("half-written garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	path, step, err := LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != committed || step != 10 {
		t.Fatalf("latest = %s step %d; want the committed step-10 file", path, step)
	}
	if _, err := LoadSnapshotFile(dir); err != nil {
		t.Fatalf("loading latest around the orphan: %v", err)
	}
	// The restarted writer re-commits step 20 over its own orphan cleanly.
	st.Step = 20
	if _, err := WriteSnapshotAtomic(dir, st, false); err != nil {
		t.Fatal(err)
	}
	if _, step, _ = LatestSnapshot(dir); step != 20 {
		t.Fatalf("after recommit latest step = %d, want 20", step)
	}
}

func TestSnapshotEmptyDirFailsTyped(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LatestSnapshot(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
	if _, err := LoadSnapshotFile(dir); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("got %v, want ErrNoSnapshot", err)
	}
}

func TestRestoreParamsMismatches(t *testing.T) {
	net, err := BuildTiramisu(TinyTiramisu(tinyCfg(1, 16, 16)))
	if err != nil {
		t.Fatal(err)
	}
	params, err := CaptureParamsInto(net.Graph, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreParams(net.Graph, params[:len(params)-1]); err == nil {
		t.Fatal("missing parameter must fail")
	}
	renamed := append([]ParamState(nil), params...)
	renamed[0].Label = "not_a_real_param"
	if err := RestoreParams(net.Graph, renamed); err == nil {
		t.Fatal("unknown label must fail")
	}
	reshaped := append([]ParamState(nil), params...)
	reshaped[0].Shape = append(reshaped[0].Shape.Clone(), 2)
	if err := RestoreParams(net.Graph, reshaped); err == nil {
		t.Fatal("shape mismatch must fail")
	}
}
