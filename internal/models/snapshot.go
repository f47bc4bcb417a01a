package models

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/hpfloat"
	"repro/internal/opt"
	"repro/internal/tensor"
)

// Training snapshots, the repo's one on-disk model format. A TrainState
// carries everything a run needs to continue — weights, optimizer state
// tree, FP16 loss scaler, per-column data-stream cursors, step counter — in
// one versioned, CRC-guarded file, and the trainer's resume path
// reconstructs every piece: resume(k steps) is bit-identical to never having
// stopped. A weights-only checkpoint (a trained model shipped to inference
// or used to warm-start) is the same file carrying only Params: zero ranks,
// no cursors, no optimizer state, no scaler. It cannot resume training
// (RemapTrainState and the trainer refuse it), and RestoreParams loads it
// into any identically built network by label and shape.
//
// File layout (little endian):
//
//	magic   u32  "SNP1"
//	version u32
//	length  u64  payload bytes that follow the header
//	payload      meta, cursors, params, optimizer tree, loss scaler
//	crc     u32  CRC-32C (Castagnoli) over header+payload
//
// The header length field distinguishes a truncated file (short read →
// ErrSnapshotTruncated) from in-place corruption (CRC mismatch →
// ErrSnapshotCorrupt), so operators see which failure they are holding.
// Every section is written in a deterministic order (graph parameter
// order, name-sorted optimizer slots), so two runs in the same state
// produce byte-identical files — the property the bit-exact resume tests
// compare on.

const (
	snapshotMagic   = 0x31504E53 // "SNP1"
	snapshotVersion = 3          // v3 added the global-batch field and compacted sections
	snapshotHeader  = 4 + 4 + 8  // magic + version + payload length
)

// snapshotVersionV2 is still readable: v2 files predate elastic training, so
// the decoder backfills GlobalBatch = Ranks (one column per rank, the only
// sharding v2 runs could have used).
const snapshotVersionV2 = 2

// compactMaxElems bounds a single compacted section's element count. The
// usual guard — "declared size must fit in the remaining payload" — does not
// apply to compressed sections (DEFLATE can legally expand far beyond its
// input), so hostile declared sizes are cut off at an absolute cap instead:
// 2^28 elements is 1 GiB of float32, far past any model this repo trains.
const compactMaxElems = 1 << 28

// Typed snapshot failures, matched with errors.Is. Load never panics on
// hostile bytes: every decode path ends in one of these (or an io error).
var (
	// ErrSnapshotFormat: the file is not a training snapshot (bad magic).
	ErrSnapshotFormat = errors.New("models: not a training snapshot")
	// ErrSnapshotVersion: written by an incompatible format version.
	ErrSnapshotVersion = errors.New("models: unsupported snapshot version")
	// ErrSnapshotTruncated: shorter than its header promises (partial
	// write or torn copy).
	ErrSnapshotTruncated = errors.New("models: snapshot truncated")
	// ErrSnapshotCorrupt: full length but the CRC does not match.
	ErrSnapshotCorrupt = errors.New("models: snapshot corrupt (CRC mismatch)")
	// ErrNoSnapshot: a resume directory holds no committed snapshot.
	ErrNoSnapshot = errors.New("models: no snapshot found")
)

// TrainState is everything a training run needs to continue bit-exactly:
// the global step, every rank's data-stream cursor, the weights, the
// optimizer state tree, and the loss-scaler state. The executor RNG needs
// no entry — its per-step seed is derived from (run seed, step, rank) — and
// the data-stream RNG is reconstructed by replaying Cursors[rank] draws.
type TrainState struct {
	Step    uint64 // training steps completed
	Ranks   int
	Seed    int64 // run seed, recorded for sanity checks
	Skipped int   // optimizer updates skipped so far (FP16 overflow)

	// GlobalBatch is the number of data-parallel sample columns in one
	// global batch. Legacy runs pin one column per rank (GlobalBatch ==
	// Ranks); elastic runs decouple the two so the same snapshot can resume
	// at any world size with the global sample sequence preserved. A zero
	// value (v2 files, hand-built states) means "same as Ranks".
	GlobalBatch int

	// Compact selects the v3 compacted encoding on write: weights are
	// byte-shuffled and DEFLATEd (lossless), Adam moment slots are 8-bit
	// range-quantized before DEFLATE (lossy; see encodeSlot). It is
	// also set on decode so callers can tell how a file was written.
	Compact bool

	// Cursors[c] is how many samples column c has drawn from its index
	// stream (one entry per GlobalBatch column; legacy snapshots carry one
	// per rank, which is the same thing). Synchronous training keeps them
	// equal to Step, but they are stored per column so the format does not
	// bake that invariant in.
	Cursors []uint64

	Params []ParamState
	Opt    *opt.State
	Scaler *hpfloat.ScalerState

	// History and ValHistory are rank 0's convergence curves up to Step, so
	// a resumed run keeps the full trajectory instead of restarting its
	// plots at the resume point. Only bit-stable fields are carried (the
	// wall/virtual clocks restart with the process and would break the
	// byte-identical-snapshot property resume tests rely on).
	History    []StepRecord
	ValHistory []ValRecord
}

// StepRecord is one training step's convergence record as persisted in the
// snapshot.
type StepRecord struct {
	Step    uint64
	Loss    float64
	Skipped bool // FP16 overflow skip
}

// ValRecord is one mid-training validation record as persisted in the
// snapshot.
type ValRecord struct {
	Step     uint64
	MeanIoU  float64
	Accuracy float64
}

// ParamState is one parameter's deep-copied snapshot.
type ParamState struct {
	Label string
	Shape tensor.Shape
	Data  []float32
}

// CaptureParamsInto deep-copies the graph's parameters, reusing prev's
// backing slices when shapes match — the double-buffered snapshot writer
// recycles its capture buffers through here so steady-state checkpointing
// allocates nothing.
func CaptureParamsInto(g *graph.Graph, prev []ParamState) ([]ParamState, error) {
	params := g.Params()
	if len(prev) != len(params) {
		prev = make([]ParamState, len(params))
	}
	for i, p := range params {
		if p.Value == nil {
			return nil, fmt.Errorf("models: parameter %q is symbolic; cannot snapshot", p.Label)
		}
		src := p.Value.Data()
		if len(prev[i].Data) != len(src) {
			prev[i].Data = make([]float32, len(src))
		}
		copy(prev[i].Data, src)
		prev[i].Label = p.Label
		prev[i].Shape = p.Shape
	}
	return prev, nil
}

// RestoreParams loads a parameter snapshot into a graph built with the same
// architecture, matching by label and shape. Missing or mismatched entries
// are errors: a silent partial load hides real bugs.
func RestoreParams(g *graph.Graph, params []ParamState) error {
	byLabel := make(map[string]*graph.Node)
	for _, p := range g.Params() {
		byLabel[p.Label] = p
	}
	if len(params) != len(byLabel) {
		return fmt.Errorf("models: snapshot has %d params, graph has %d", len(params), len(byLabel))
	}
	for _, ps := range params {
		p, ok := byLabel[ps.Label]
		if !ok {
			return fmt.Errorf("models: snapshot param %q not in graph", ps.Label)
		}
		if !ps.Shape.Equal(p.Shape) {
			return fmt.Errorf("models: param %q shape %v, graph wants %v", ps.Label, ps.Shape, p.Shape)
		}
		if p.Value == nil {
			return fmt.Errorf("models: parameter %q is symbolic; cannot restore", ps.Label)
		}
		copy(p.Value.Data(), ps.Data)
	}
	return nil
}

// snapshotCRC is the Castagnoli polynomial — CRC-32C, computed with the
// dedicated CPU instruction on amd64/arm64, so checksumming megabytes of
// state costs microseconds of the writer goroutine (which shares its core
// with training on small hosts).
var snapshotCRC = crc32.MakeTable(crc32.Castagnoli)

// EncodeSnapshot writes the state as one framed, CRC-guarded snapshot. The
// uncompacted payload streams through a buffered writer in a single pass
// (its exact size is computed up front for the header), so encoding
// allocates no payload-sized intermediate — the asynchronous checkpoint
// writer's CPU cost is one conversion sweep plus the hardware CRC.
// Compressed section sizes cannot be known before compressing, so the
// compacted payload is built in memory and framed afterwards — acceptable
// because compaction exists precisely to make that payload several times
// smaller. DEFLATE at a fixed level is deterministic, so two runs in the
// same state still produce byte-identical files.
func (s *TrainState) EncodeSnapshot(w io.Writer) error {
	if s.Compact {
		var payload bytes.Buffer
		if err := s.writePayload(&payload); err != nil {
			return err
		}
		return writeFramed(w, payload.Len(), func(pw io.Writer) error {
			_, err := pw.Write(payload.Bytes())
			return err
		})
	}
	size, err := s.payloadSize()
	if err != nil {
		return err
	}
	return writeFramed(w, size, s.writePayload)
}

// writePayload encodes the payload through a 64 KiB buffer.
func (s *TrainState) writePayload(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := s.encodePayload(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// writeFramed writes the header announcing size payload bytes, the payload
// that body writes, and the CRC-32C trailer over both.
func writeFramed(w io.Writer, size int, body func(io.Writer) error) error {
	var header [snapshotHeader]byte
	binary.LittleEndian.PutUint32(header[0:], snapshotMagic)
	binary.LittleEndian.PutUint32(header[4:], snapshotVersion)
	binary.LittleEndian.PutUint64(header[8:], uint64(size))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	crc := crc32.New(snapshotCRC)
	crc.Write(header[:])
	cw := &countingWriter{w: io.MultiWriter(w, crc)}
	if err := body(cw); err != nil {
		return err
	}
	if cw.n != int64(size) {
		return fmt.Errorf("models: snapshot encoder wrote %d payload bytes, sized %d", cw.n, size)
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

type countingWriter struct {
	w io.Writer
	n int64
}

// Write implements io.Writer, counting bytes through to the target.
func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// payloadSize returns the exact encoded payload size, mirroring
// encodePayload section by section (the encoder verifies the two agree).
func (s *TrainState) payloadSize() (int, error) {
	size := 8 + 4 + 4 + 8 + 4 + 1 // step, ranks, global batch, seed, skipped, flags
	size += 4 + 8*len(s.Cursors)
	size += 4
	for _, p := range s.Params {
		if p.Shape.NumElements() != len(p.Data) {
			return 0, fmt.Errorf("models: param %q shape %v does not cover %d values",
				p.Label, p.Shape, len(p.Data))
		}
		size += 4 + len(p.Label) + 4 + 4*p.Shape.Rank() + 4*len(p.Data)
	}
	size += optStateSize(s.Opt)
	size++ // scaler presence byte
	if s.Scaler != nil {
		size += 8 + 4 + 4
	}
	size += 4 + stepRecordSize*len(s.History)
	size += 4 + valRecordSize*len(s.ValHistory)
	return size, nil
}

// Encoded bytes per history record: step + loss + skipped byte, and step +
// mean IoU + accuracy.
const (
	stepRecordSize = 8 + 8 + 1
	valRecordSize  = 8 + 8 + 8
)

func optStateSize(st *opt.State) int {
	if st == nil {
		return 1
	}
	size := 1 + 4 + len(st.Kind) + 8 + 4
	for _, s := range st.Slots {
		size += 4 + len(s.Name) + 4 + 4*len(s.Data)
	}
	size += 4
	for _, set := range st.Queue {
		size += 4
		for _, s := range set {
			size += 4 + len(s.Name) + 4 + 4*len(s.Data)
		}
	}
	return size + optStateSize(st.Base)
}

// writeF32s appends a float32 slice to the payload through a stack scratch
// block — one bounds-checked conversion pass instead of encoding/binary's
// per-call reflection and buffer churn. The bulk sections (weights, Adam
// moments) dominate snapshot bytes, so this is the encoder's hot loop.
func writeF32s(w *bufio.Writer, xs []float32) {
	var scratch [8192]byte
	for len(xs) > 0 {
		n := min(len(xs), len(scratch)/4)
		for i, x := range xs[:n] {
			binary.LittleEndian.PutUint32(scratch[4*i:], math.Float32bits(x))
		}
		w.Write(scratch[:4*n])
		xs = xs[n:]
	}
}

func writeString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	_, err := w.Write([]byte(s))
	return err
}

func readString(r io.Reader) (string, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (s *TrainState) encodePayload(w *bufio.Writer) error {
	le := binary.LittleEndian
	gb := s.GlobalBatch
	if gb == 0 {
		gb = s.Ranks
	}
	var flags byte
	if s.Compact {
		flags |= 1
	}
	binary.Write(w, le, s.Step)
	binary.Write(w, le, uint32(s.Ranks))
	binary.Write(w, le, uint32(gb))
	binary.Write(w, le, s.Seed)
	binary.Write(w, le, uint32(s.Skipped))
	w.WriteByte(flags)
	binary.Write(w, le, uint32(len(s.Cursors)))
	for _, c := range s.Cursors {
		binary.Write(w, le, c)
	}
	binary.Write(w, le, uint32(len(s.Params)))
	for _, p := range s.Params {
		if err := writeString(w, p.Label); err != nil {
			return err
		}
		binary.Write(w, le, uint32(p.Shape.Rank()))
		for _, d := range p.Shape {
			binary.Write(w, le, uint32(d))
		}
		if p.Shape.NumElements() != len(p.Data) {
			return fmt.Errorf("models: param %q shape %v does not cover %d values",
				p.Label, p.Shape, len(p.Data))
		}
		if s.Compact {
			writeCompressedF32s(w, p.Data)
		} else {
			writeF32s(w, p.Data)
		}
	}
	if err := encodeOptState(w, s.Opt, s.Compact); err != nil {
		return err
	}
	if s.Scaler == nil {
		w.WriteByte(0)
	} else {
		w.WriteByte(1)
		binary.Write(w, le, s.Scaler.Scale)
		binary.Write(w, le, uint32(s.Scaler.CleanSteps))
		binary.Write(w, le, uint32(s.Scaler.SkippedSteps))
	}
	binary.Write(w, le, uint32(len(s.History)))
	for _, h := range s.History {
		binary.Write(w, le, h.Step)
		binary.Write(w, le, h.Loss)
		if h.Skipped {
			w.WriteByte(1)
		} else {
			w.WriteByte(0)
		}
	}
	binary.Write(w, le, uint32(len(s.ValHistory)))
	for _, v := range s.ValHistory {
		binary.Write(w, le, v.Step)
		binary.Write(w, le, v.MeanIoU)
		binary.Write(w, le, v.Accuracy)
	}
	return nil
}

// encodeOptState writes the optimizer state tree depth first. The tree
// framing is one layout; compact selects only how each slot's floats are
// stored (see encodeSlot).
func encodeOptState(w *bufio.Writer, st *opt.State, compact bool) error {
	if st == nil {
		w.WriteByte(0)
		return nil
	}
	w.WriteByte(1)
	le := binary.LittleEndian
	if err := writeString(w, st.Kind); err != nil {
		return err
	}
	binary.Write(w, le, st.Step)
	// Only Adam's m/ and v/ moment slots are quantized; everything else
	// (LARC has no slots, SGD velocity is update state a resumed run keeps
	// applying directly) stays lossless.
	quantizable := st.Kind == "adam"
	binary.Write(w, le, uint32(len(st.Slots)))
	for _, s := range st.Slots {
		if err := encodeSlot(w, s, compact, quantizable); err != nil {
			return err
		}
	}
	binary.Write(w, le, uint32(len(st.Queue)))
	for _, set := range st.Queue {
		binary.Write(w, le, uint32(len(set)))
		for _, s := range set {
			// Queued gradients feed future optimizer updates verbatim;
			// quantizing them would bias every delayed step. Lossless.
			if err := encodeSlot(w, s, compact, false); err != nil {
				return err
			}
		}
	}
	return encodeOptState(w, st.Base, compact)
}

// --- compacted (v3, flags bit 0) section codecs ---
//
// Compaction attacks the two bulk sections. Weights must stay lossless, so
// they are byte-shuffled (the four bytes of each float32 regrouped into four
// planes — sign/exponent bytes cluster tightly in trained nets) and DEFLATEd.
// Adam moment slots tolerate loss — they are running averages that re-adapt
// within a few steps — so they are range-quantized to 8-bit codes (per-slot
// min/step, the same scheme internal/compress uses per channel at 16-bit)
// and then DEFLATEd. Slots that cannot quantize (NaN/Inf) and the LagN
// gradient queue fall back to the lossless encoding, selected per slot by a
// scheme byte.

// writeCompressedF32s writes one lossless compacted block: u32 encoded length
// followed by deflate(byteshuffle(data)).
func writeCompressedF32s(w *bufio.Writer, xs []float32) {
	enc := deflateBytes(byteShuffle(xs))
	binary.Write(w, binary.LittleEndian, uint32(len(enc)))
	w.Write(enc)
}

// readCompactBlock reads a u32-length-prefixed compressed block, bounding the
// declared length by the remaining payload (the compressed bytes themselves
// are stored verbatim, so the usual bound applies to them).
func readCompactBlock(r *bytes.Reader) ([]byte, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if uint64(n) > uint64(r.Len()) {
		return nil, fmt.Errorf("compacted block overruns the payload")
	}
	enc := make([]byte, n)
	if _, err := io.ReadFull(r, enc); err != nil {
		return nil, err
	}
	return enc, nil
}

// Per-slot compact encodings, selected by the scheme byte after the element
// count.
const (
	slotLossless = 0 // deflate(byteshuffle(f32s))
	slotQuant8   = 1 // f32 min, f32 step, deflate(u8 codes)
)

// encodeSlot writes one slot: name, element count, then the floats — raw
// in a plain snapshot; in a compacted one a scheme byte followed by 8-bit
// codes (quantizable Adam moments) or a lossless block.
func encodeSlot(w *bufio.Writer, s opt.Slot, compact, quantizable bool) error {
	le := binary.LittleEndian
	if err := writeString(w, s.Name); err != nil {
		return err
	}
	binary.Write(w, le, uint32(len(s.Data)))
	if !compact {
		writeF32s(w, s.Data)
		return nil
	}
	if quantizable && (strings.HasPrefix(s.Name, "m/") || strings.HasPrefix(s.Name, "v/")) {
		if lo, step, codes, ok := quantize8(s.Data); ok {
			w.WriteByte(slotQuant8)
			binary.Write(w, le, lo)
			binary.Write(w, le, step)
			enc := deflateBytes(codes)
			binary.Write(w, le, uint32(len(enc)))
			w.Write(enc)
			return nil
		}
	}
	w.WriteByte(slotLossless)
	writeCompressedF32s(w, s.Data)
	return nil
}

// quantize8 maps xs onto 256 evenly spaced levels across its own range.
// Reports ok=false for non-finite inputs (the caller falls back to the
// lossless encoding). A constant slice quantizes exactly: step 0, all codes
// 0, reconstruction float32(min).
func quantize8(xs []float32) (lo, step float32, codes []byte, ok bool) {
	if len(xs) == 0 {
		return 0, 0, nil, false
	}
	min64, max64 := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		v := float64(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, 0, nil, false
		}
		min64 = math.Min(min64, v)
		max64 = math.Max(max64, v)
	}
	st := (max64 - min64) / 255
	codes = make([]byte, len(xs))
	if st > 0 {
		for i, x := range xs {
			q := math.Round((float64(x) - min64) / st)
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
			codes[i] = byte(q)
		}
	}
	return float32(min64), float32(st), codes, true
}

func dequantize8(lo, step float32, codes []byte, out []float32) {
	for i, c := range codes {
		out[i] = float32(float64(lo) + float64(step)*float64(c))
	}
}

// byteShuffle regroups float32 bytes into four planes (all byte-0s, then all
// byte-1s, …) so DEFLATE sees the highly repetitive sign/exponent bytes as
// long runs instead of interleaved with near-random mantissa bytes.
func byteShuffle(xs []float32) []byte {
	n := len(xs)
	out := make([]byte, 4*n)
	for i, x := range xs {
		b := math.Float32bits(x)
		out[i] = byte(b)
		out[n+i] = byte(b >> 8)
		out[2*n+i] = byte(b >> 16)
		out[3*n+i] = byte(b >> 24)
	}
	return out
}

func byteUnshuffle(p []byte, out []float32) {
	n := len(out)
	for i := range out {
		b := uint32(p[i]) | uint32(p[n+i])<<8 | uint32(p[2*n+i])<<16 | uint32(p[3*n+i])<<24
		out[i] = math.Float32frombits(b)
	}
}

// deflateBytes compresses p at a fixed level. BestSpeed keeps the snapshot
// writer cheap, and a fixed level keeps the output deterministic — the
// byte-identical-snapshot property holds for compacted files too.
func deflateBytes(p []byte) []byte {
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		// Only reachable with an invalid level constant — a build bug.
		panic(err)
	}
	fw.Write(p)
	fw.Close()
	return buf.Bytes()
}

// deflateMaxRatio is the most DEFLATE can expand its input: one 258-byte
// match coded in 2 bits.
const deflateMaxRatio = 1032

// inflateBytes decompresses p, requiring exactly want bytes: a compacted
// section that inflates short or long is corrupt. The first buffer is no
// larger than p can expand to and grows only as inflated bytes arrive, so a
// hostile declared size costs memory in proportion to the bytes the file
// actually carries, never to the claim.
func inflateBytes(p []byte, want int) ([]byte, error) {
	fr := flate.NewReader(bytes.NewReader(p))
	defer fr.Close()
	out := bytes.NewBuffer(make([]byte, 0, min(want, deflateMaxRatio*len(p))+bytes.MinRead))
	if _, err := out.ReadFrom(io.LimitReader(fr, int64(want)+1)); err != nil {
		return nil, fmt.Errorf("compacted section: %v", err)
	}
	switch {
	case out.Len() < want:
		return nil, fmt.Errorf("compacted section inflates to %d bytes, declared %d", out.Len(), want)
	case out.Len() > want:
		return nil, fmt.Errorf("compacted section inflates past its declared size")
	}
	return out.Bytes(), nil
}

// DecodeSnapshot reads and verifies a snapshot. Failures are typed: wrong
// magic (ErrSnapshotFormat), unknown version (ErrSnapshotVersion), short
// file (ErrSnapshotTruncated), checksum mismatch (ErrSnapshotCorrupt).
func DecodeSnapshot(r io.Reader) (*TrainState, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("models: reading snapshot: %w", err)
	}
	if len(raw) < snapshotHeader {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrSnapshotTruncated, len(raw))
	}
	le := binary.LittleEndian
	if le.Uint32(raw[0:]) != snapshotMagic {
		return nil, fmt.Errorf("%w: magic %#x", ErrSnapshotFormat, le.Uint32(raw[0:]))
	}
	version := le.Uint32(raw[4:])
	if version != snapshotVersion && version != snapshotVersionV2 {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d and %d",
			ErrSnapshotVersion, version, snapshotVersionV2, snapshotVersion)
	}
	plen := le.Uint64(raw[8:])
	// Guard the length arithmetic itself: a hostile plen near 2^64 would
	// wrap `header+plen+4` and slip past the check into a panicking slice.
	if plen > uint64(len(raw)-snapshotHeader) {
		return nil, fmt.Errorf("%w: header promises %d payload bytes, file carries %d",
			ErrSnapshotTruncated, plen, len(raw)-snapshotHeader)
	}
	want := uint64(snapshotHeader) + plen + 4
	if uint64(len(raw)) < want {
		return nil, fmt.Errorf("%w: %d of %d bytes", ErrSnapshotTruncated, len(raw), want)
	}
	body := raw[:snapshotHeader+plen]
	stored := le.Uint32(raw[snapshotHeader+plen:])
	if crc32.Checksum(body, snapshotCRC) != stored {
		return nil, fmt.Errorf("%w: stored %#x computed %#x",
			ErrSnapshotCorrupt, stored, crc32.Checksum(body, snapshotCRC))
	}
	st, err := decodePayload(bytes.NewReader(body[snapshotHeader:]), version)
	if err != nil {
		// The CRC passed, so a decode failure means a writer bug or an
		// incompatible same-version format — still corrupt to the caller.
		return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
	}
	return st, nil
}

func decodePayload(r *bytes.Reader, version uint32) (*TrainState, error) {
	le := binary.LittleEndian
	st := &TrainState{}
	var ranks, gb, skipped, n uint32
	if err := binary.Read(r, le, &st.Step); err != nil {
		return nil, err
	}
	if err := binary.Read(r, le, &ranks); err != nil {
		return nil, err
	}
	if version >= 3 {
		if err := binary.Read(r, le, &gb); err != nil {
			return nil, err
		}
	} else {
		gb = ranks // v2: one column per rank by construction
	}
	if err := binary.Read(r, le, &st.Seed); err != nil {
		return nil, err
	}
	if err := binary.Read(r, le, &skipped); err != nil {
		return nil, err
	}
	if version >= 3 {
		flags, err := r.ReadByte()
		if err != nil {
			return nil, err
		}
		st.Compact = flags&1 != 0
	}
	st.Ranks, st.GlobalBatch, st.Skipped = int(ranks), int(gb), int(skipped)
	if err := binary.Read(r, le, &n); err != nil {
		return nil, err
	}
	if uint64(n)*8 > uint64(r.Len()) {
		return nil, fmt.Errorf("implausible cursor count %d", n)
	}
	st.Cursors = make([]uint64, n)
	for i := range st.Cursors {
		if err := binary.Read(r, le, &st.Cursors[i]); err != nil {
			return nil, err
		}
	}
	if err := binary.Read(r, le, &n); err != nil {
		return nil, err
	}
	if uint64(n)*4 > uint64(r.Len()) {
		return nil, fmt.Errorf("implausible param count %d", n)
	}
	st.Params = make([]ParamState, n)
	for i := range st.Params {
		label, err := readString(r)
		if err != nil {
			return nil, err
		}
		var rank uint32
		if err := binary.Read(r, le, &rank); err != nil {
			return nil, err
		}
		if rank > 8 {
			return nil, fmt.Errorf("implausible param rank %d", rank)
		}
		shape := make(tensor.Shape, rank)
		// Accumulate the element count with the payload bound applied per
		// dimension: hostile dims like 2^31 × 2^31 would overflow a single
		// post-hoc `ne*4` check and reach make() with a panicking length.
		bound := maxElems(r, st.Compact)
		ne := uint64(1)
		for d := range shape {
			var dim uint32
			if err := binary.Read(r, le, &dim); err != nil {
				return nil, err
			}
			shape[d] = int(dim)
			if ne *= uint64(dim); ne > bound {
				return nil, fmt.Errorf("param %q data overruns the payload", label)
			}
		}
		data, err := readFloats(r, int(ne), st.Compact)
		if err != nil {
			return nil, fmt.Errorf("param %q: %v", label, err)
		}
		st.Params[i] = ParamState{Label: label, Shape: shape, Data: data}
	}
	var err error
	if st.Opt, err = decodeOptState(r, st.Compact, 0); err != nil {
		return nil, err
	}
	has, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if has == 1 {
		sc := &hpfloat.ScalerState{}
		var clean, sk uint32
		if err := binary.Read(r, le, &sc.Scale); err != nil {
			return nil, err
		}
		if err := binary.Read(r, le, &clean); err != nil {
			return nil, err
		}
		if err := binary.Read(r, le, &sk); err != nil {
			return nil, err
		}
		sc.CleanSteps, sc.SkippedSteps = int(clean), int(sk)
		st.Scaler = sc
	}
	if err := binary.Read(r, le, &n); err != nil {
		return nil, err
	}
	if uint64(n)*stepRecordSize > uint64(r.Len()) {
		return nil, fmt.Errorf("implausible history length %d", n)
	}
	if n > 0 {
		st.History = make([]StepRecord, n)
		for i := range st.History {
			h := &st.History[i]
			if err := binary.Read(r, le, &h.Step); err != nil {
				return nil, err
			}
			if err := binary.Read(r, le, &h.Loss); err != nil {
				return nil, err
			}
			b, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			h.Skipped = b != 0
		}
	}
	if err := binary.Read(r, le, &n); err != nil {
		return nil, err
	}
	if uint64(n)*valRecordSize > uint64(r.Len()) {
		return nil, fmt.Errorf("implausible validation history length %d", n)
	}
	if n > 0 {
		st.ValHistory = make([]ValRecord, n)
		for i := range st.ValHistory {
			v := &st.ValHistory[i]
			if err := binary.Read(r, le, &v.Step); err != nil {
				return nil, err
			}
			if err := binary.Read(r, le, &v.MeanIoU); err != nil {
				return nil, err
			}
			if err := binary.Read(r, le, &v.Accuracy); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// maxElems bounds one section's declared element count before anything is
// allocated for it: raw floats must fit in the remaining payload. Compacted
// data is compressed, so that bound does not apply and the absolute cap
// stands in for it.
func maxElems(r *bytes.Reader, compact bool) uint64 {
	if compact {
		return compactMaxElems
	}
	return uint64(r.Len()) / 4
}

// readFloats reads ne float32 values stored raw or, in a compacted
// snapshot, as the lossless block writeCompressedF32s wrote.
func readFloats(r *bytes.Reader, ne int, compact bool) ([]float32, error) {
	if !compact {
		data := make([]float32, ne)
		if err := binary.Read(r, binary.LittleEndian, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	enc, err := readCompactBlock(r)
	if err != nil {
		return nil, err
	}
	// Inflate before allocating: the declared count is not yet backed by
	// bytes.
	raw, err := inflateBytes(enc, 4*ne)
	if err != nil {
		return nil, err
	}
	data := make([]float32, ne)
	byteUnshuffle(raw, data)
	return data, nil
}

// decodeOptState reads the tree encodeOptState wrote with the same compact
// bit.
func decodeOptState(r *bytes.Reader, compact bool, depth int) (*opt.State, error) {
	if depth > 8 {
		return nil, fmt.Errorf("optimizer state nested deeper than any real composition")
	}
	has, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	if has == 0 {
		return nil, nil
	}
	le := binary.LittleEndian
	st := &opt.State{}
	if st.Kind, err = readString(r); err != nil {
		return nil, err
	}
	if err := binary.Read(r, le, &st.Step); err != nil {
		return nil, err
	}
	readSlots := func() ([]opt.Slot, error) {
		var n uint32
		if err := binary.Read(r, le, &n); err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil // keep nil/empty symmetric with the encoder
		}
		if uint64(n)*4 > uint64(r.Len()) {
			return nil, fmt.Errorf("implausible slot count %d", n)
		}
		slots := make([]opt.Slot, n)
		for i := range slots {
			name, err := readString(r)
			if err != nil {
				return nil, err
			}
			data, err := decodeSlotData(r, compact)
			if err != nil {
				return nil, fmt.Errorf("slot %q: %v", name, err)
			}
			slots[i] = opt.Slot{Name: name, Data: data}
		}
		return slots, nil
	}
	if st.Slots, err = readSlots(); err != nil {
		return nil, err
	}
	var nq uint32
	if err := binary.Read(r, le, &nq); err != nil {
		return nil, err
	}
	if uint64(nq)*4 > uint64(r.Len()) {
		return nil, fmt.Errorf("implausible queue length %d", nq)
	}
	for i := uint32(0); i < nq; i++ {
		set, err := readSlots()
		if err != nil {
			return nil, err
		}
		st.Queue = append(st.Queue, set)
	}
	if st.Base, err = decodeOptState(r, compact, depth+1); err != nil {
		return nil, err
	}
	return st, nil
}

// decodeSlotData reads what encodeSlot wrote after the slot name.
func decodeSlotData(r *bytes.Reader, compact bool) ([]float32, error) {
	le := binary.LittleEndian
	var ne uint32
	if err := binary.Read(r, le, &ne); err != nil {
		return nil, err
	}
	if uint64(ne) > maxElems(r, compact) {
		return nil, fmt.Errorf("data overruns the payload")
	}
	if !compact {
		return readFloats(r, int(ne), false)
	}
	scheme, err := r.ReadByte()
	if err != nil {
		return nil, err
	}
	switch scheme {
	case slotLossless:
		return readFloats(r, int(ne), true)
	case slotQuant8:
		var lo, step float32
		if err := binary.Read(r, le, &lo); err != nil {
			return nil, err
		}
		if err := binary.Read(r, le, &step); err != nil {
			return nil, err
		}
		enc, err := readCompactBlock(r)
		if err != nil {
			return nil, err
		}
		codes, err := inflateBytes(enc, int(ne))
		if err != nil {
			return nil, err
		}
		data := make([]float32, ne)
		dequantize8(lo, step, codes, data)
		return data, nil
	default:
		return nil, fmt.Errorf("unknown compact scheme %d", scheme)
	}
}

// SaveSnapshotFile writes the state to path (not atomically — the trainer's
// checkpoint directory flow goes through WriteSnapshotAtomic instead).
func SaveSnapshotFile(path string, s *TrainState) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.EncodeSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshotFile reads and verifies a snapshot file. If path is a
// directory, the latest committed snapshot inside it is loaded.
func LoadSnapshotFile(path string) (*TrainState, error) {
	if fi, err := os.Stat(path); err == nil && fi.IsDir() {
		latest, _, err := LatestSnapshot(path)
		if err != nil {
			return nil, err
		}
		path = latest
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeSnapshot(f)
}

// snapshotName formats the committed file name for a step. The fixed-width
// step makes lexical order equal step order.
func snapshotName(step uint64) string { return fmt.Sprintf("ckpt-%012d.snap", step) }

// WriteSnapshotAtomic commits the state into dir as ckpt-<step>.snap via a
// temporary file and rename, so a crash mid-write can never leave a
// half-written file under the committed name — the crash window leaves at
// most a *.tmp orphan, which every reader ignores and the next writer
// replaces. Rename atomicity covers the repo's simulated failure model
// (process preemption: walltime kill, cancellation, crash — the page cache
// survives the process). durable additionally fsyncs the file before the
// rename and the directory after it — both are needed for the snapshot to
// survive host power loss (the rename itself is directory metadata) — at
// the cost of stalling the writer on the journal commits. Returns the
// committed path.
func WriteSnapshotAtomic(dir string, s *TrainState, durable bool) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	final := filepath.Join(dir, snapshotName(s.Step))
	tmp := final + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return "", err
	}
	if err := s.EncodeSnapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if durable {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return "", err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if durable {
		if err := syncDir(dir); err != nil {
			return "", err
		}
	}
	return final, nil
}

// syncDir fsyncs a directory so renames and unlinks inside it reach disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// listSnapshots returns the committed snapshot files in dir, oldest first.
// *.tmp orphans from interrupted writes are never listed.
func listSnapshots(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.Type().IsRegular() && len(n) == len(snapshotName(0)) &&
			filepath.Ext(n) == ".snap" && n[:5] == "ckpt-" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// LatestSnapshot returns the newest committed snapshot in dir and its step.
// Returns ErrNoSnapshot when the directory holds none (including when only
// *.tmp orphans exist).
func LatestSnapshot(dir string) (path string, step uint64, err error) {
	names, err := listSnapshots(dir)
	if err != nil {
		return "", 0, err
	}
	if len(names) == 0 {
		return "", 0, fmt.Errorf("%w in %s", ErrNoSnapshot, dir)
	}
	last := names[len(names)-1]
	fmt.Sscanf(last, "ckpt-%d.snap", &step)
	return filepath.Join(dir, last), step, nil
}

// PruneSnapshots deletes all but the newest keep committed snapshots in
// dir (keep < 1 is treated as 1 — the retention policy never deletes the
// only recovery point).
func PruneSnapshots(dir string, keep int) error {
	if keep < 1 {
		keep = 1
	}
	names, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	for _, n := range names[:max(0, len(names)-keep)] {
		if err := os.Remove(filepath.Join(dir, n)); err != nil {
			return err
		}
	}
	return nil
}
