package exaclim

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func ckptBase(dir string) []Option {
	return []Option{
		WithNetwork("tiramisu", Tiny),
		WithSyntheticData(16, 16, 16, 9),
		WithRanks(2, 1),
		WithSeed(4),
		WithCheckpointDir(dir),
		WithCheckpointEvery(3),
	}
}

func TestCheckpointOptionValidation(t *testing.T) {
	cases := [][]Option{
		{WithCheckpointEvery(3)},                        // every without dir
		{WithCheckpointDir(t.TempDir())},                // dir without every
		{WithCheckpointEvery(0)},                        // bad cadence
		{WithCheckpointRetain(0)},                       // bad retention
		{WithResume("")},                                // empty resume path
		{WithResume("x"), WithInitCheckpoint("y")},      // full state vs weights only
		{WithCheckpointDir(""), WithCheckpointEvery(1)}, // empty dir
	}
	for i, opts := range cases {
		if _, err := New(opts...); err == nil {
			t.Errorf("case %d: invalid checkpoint options accepted", i)
		}
	}
}

// TestFullStateResumeThroughAPI is the public-API twin of the core
// bit-exact property: interrupt at step 3 of 6, resume, and the final
// snapshot must match the uninterrupted run's byte for byte.
func TestFullStateResumeThroughAPI(t *testing.T) {
	run := func(dir string, steps int, extra ...Option) *Result {
		t.Helper()
		exp, err := New(append(append(ckptBase(dir), WithSteps(steps)), extra...)...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	refDir := t.TempDir()
	ref := run(refDir, 6)
	if ref.Checkpoints != 2 || ref.StartStep != 0 {
		t.Fatalf("reference: %d checkpoints, start %d", ref.Checkpoints, ref.StartStep)
	}

	resDir := t.TempDir()
	run(resDir, 3)
	res := run(resDir, 6, WithResume(resDir))
	if res.StartStep != 3 || len(res.History) != 3 {
		t.Fatalf("resumed: start %d, %d steps", res.StartStep, len(res.History))
	}
	for i, s := range res.History {
		if s.Loss != ref.History[3+i].Loss {
			t.Fatalf("step %d loss %g differs from uninterrupted %g", s.Step, s.Loss, ref.History[3+i].Loss)
		}
	}

	a, err := os.ReadFile(filepath.Join(refDir, "ckpt-000000000006.snap"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(res.LastCheckpoint)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("final snapshots differ: public-API resume is not bit-exact")
	}

	if _, step, err := LatestCheckpoint(resDir); err != nil || step != 6 {
		t.Fatalf("LatestCheckpoint: step %d err %v", step, err)
	}
	info, err := VerifyCheckpoint(res.LastCheckpoint)
	if err != nil || info.Step != 6 {
		t.Fatalf("VerifyCheckpoint: %+v err %v", info, err)
	}
	if info.Ranks != 2 || info.GlobalBatch != 2 || info.Compacted {
		t.Fatalf("VerifyCheckpoint metadata: %+v", info)
	}
	if fi, err := os.Stat(res.LastCheckpoint); err != nil || info.SizeBytes != fi.Size() {
		t.Fatalf("VerifyCheckpoint size %d, file %v err %v", info.SizeBytes, fi, err)
	}
}

// TestCorruptCheckpointFailsTyped: a damaged snapshot must surface a typed
// error from Run — and never panic or half-apply.
func TestCorruptCheckpointFailsTyped(t *testing.T) {
	dir := t.TempDir()
	exp, err := New(append(ckptBase(dir), WithSteps(3))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	path, _, err := LatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mut  func() []byte
		want error
	}{
		{"corrupt", func() []byte {
			bad := append([]byte(nil), raw...)
			bad[len(bad)/2] ^= 1
			return bad
		}, ErrCheckpointCorrupt},
		{"truncated", func() []byte { return raw[:len(raw)/3] }, ErrCheckpointTruncated},
		{"foreign", func() []byte { return []byte("0123456789abcdef0123456789") }, ErrCheckpointFormat},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mut(), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := VerifyCheckpoint(path); !errors.Is(err, tc.want) {
				t.Fatalf("VerifyCheckpoint: got %v, want %v", err, tc.want)
			}
			exp, err := New(append(ckptBase(dir), WithSteps(6), WithResume(path))...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := exp.Run(context.Background()); !errors.Is(err, tc.want) {
				t.Fatalf("Run: got %v, want %v", err, tc.want)
			}
		})
	}

	if _, _, err := LatestCheckpoint(t.TempDir()); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: got %v, want ErrNoCheckpoint", err)
	}
}

// TestResumeRejectsRankMismatch: the snapshot pins the world size.
func TestResumeRejectsRankMismatch(t *testing.T) {
	dir := t.TempDir()
	exp, err := New(append(ckptBase(dir), WithSteps(3))...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	opts := append(ckptBase(dir), WithSteps(6), WithResume(dir))
	opts = append(opts, WithRanks(4, 1)) // snapshot was taken at 2
	exp, err = New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Run(context.Background()); err == nil {
		t.Fatal("resume at a different rank count must fail")
	}
}

// trainTiny runs a short single-rank experiment with no checkpointing and
// returns its trained model.
func trainTiny(t *testing.T, seed int64, extra ...Option) *Result {
	t.Helper()
	exp, err := New(append([]Option{
		WithNetwork("tiramisu", Tiny),
		WithSyntheticData(16, 16, 16, 9),
		WithRanks(1, 1),
		WithSeed(seed),
		WithSteps(3),
		WithValidation(0),
	}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestWeightsOnlyCheckpointInspectsAndSwaps: Model.SaveCheckpoint writes a
// snapshot InspectCheckpoint accepts as step 0 on zero ranks, and a fleet
// serving other weights rolls it in as version 1 with the saved model's
// masks.
func TestWeightsOnlyCheckpointInspectsAndSwaps(t *testing.T) {
	saved := trainTiny(t, 4).Model
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := saved.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	info, err := InspectCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Step != 0 || info.Ranks != 0 || info.GlobalBatch != 0 || info.Compacted {
		t.Fatalf("weights-only checkpoint metadata: %+v", info)
	}

	f, err := NewFleet(trainTiny(t, 5).Model, WithShards(2), WithFleetMaxBatch(4))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.SwapCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	fields := SyntheticDataset(32, 32, 1, 7).Sample(0).Fields
	got, stat, err := f.Segment(context.Background(), fields)
	if err != nil {
		t.Fatal(err)
	}
	if stat.Version != 1 || stat.Step != 0 {
		t.Fatalf("post-swap request served by version %d step %d, want version 1 step 0", stat.Version, stat.Step)
	}
	want, err := saved.Segment(fields, SegmentConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("swapped-in fleet mask diverges from the saved model at pixel %d", i)
		}
	}
}

// TestInitCheckpointFromSnapshotDir: WithInitCheckpoint accepts a
// WithCheckpointEvery directory and warm-starts from its latest snapshot's
// weights at step 0 — the same trajectory as warm-starting from a
// weights-only checkpoint of those weights.
func TestInitCheckpointFromSnapshotDir(t *testing.T) {
	dir := t.TempDir()
	exp, err := New(append(ckptBase(dir), WithSteps(3), WithValidation(0))...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := exp.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	weights := filepath.Join(t.TempDir(), "model.ckpt")
	if err := src.Model.SaveCheckpoint(weights); err != nil {
		t.Fatal(err)
	}

	fromDir := trainTiny(t, 6, WithInitCheckpoint(dir))
	fromFile := trainTiny(t, 6, WithInitCheckpoint(weights))
	cold := trainTiny(t, 6)
	if fromDir.StartStep != 0 || len(fromDir.History) != 3 {
		t.Fatalf("warm start: start step %d, %d steps", fromDir.StartStep, len(fromDir.History))
	}
	for i, s := range fromDir.History {
		if s.Loss != fromFile.History[i].Loss {
			t.Fatalf("step %d loss %g, weights-only warm start %g", s.Step, s.Loss, fromFile.History[i].Loss)
		}
	}
	if fromDir.History[0].Loss == cold.History[0].Loss {
		t.Fatal("warm start from the directory trained like a cold start")
	}
}

// TestResumeRefusesWeightsOnlyCheckpoint: a weights-only checkpoint has no
// ranks, cursors or optimizer state, so neither resume path accepts it —
// both fail typed before any step runs.
func TestResumeRefusesWeightsOnlyCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.ckpt")
	if err := trainTiny(t, 4).Model.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	for name, resume := range map[string]Option{
		"resume":  WithResume(path),
		"elastic": WithElasticResume(path),
	} {
		steps := 0
		exp, err := New(WithNetwork("tiramisu", Tiny), WithSyntheticData(16, 16, 16, 9),
			WithRanks(1, 1), WithSeed(4), WithSteps(3), WithValidation(0), resume,
			WithObserver(ObserverFuncs{Step: func(StepStat) { steps++ }}))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := exp.Run(context.Background()); !errors.Is(err, ErrCheckpointRankMismatch) {
			t.Fatalf("%s: got %v, want ErrCheckpointRankMismatch", name, err)
		}
		if steps != 0 {
			t.Fatalf("%s: %d steps ran before the refusal", name, steps)
		}
	}
}
