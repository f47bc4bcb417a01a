package core

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/simnet"
)

// elasticConfig is baseConfig restated over a global batch: the trajectory
// becomes a function of GlobalBatch columns, so runs at different world
// sizes are comparable.
func elasticConfig(ranks, globalBatch, steps int) Config {
	cfg := baseConfig(ranks, steps)
	cfg.GlobalBatch = globalBatch
	return cfg
}

// finalWeights flattens a run's trained parameters for bitwise comparison.
func finalWeights(t *testing.T, res *Result) []float32 {
	t.Helper()
	var out []float32
	for _, p := range res.Net.Graph.Params() {
		out = append(out, p.Value.Data()...)
	}
	return out
}

// TestElasticResume is the rescale-on-resume acceptance property: train 8
// ranks over a global batch of 8, checkpoint, "lose the allocation", and
// resume the same snapshot at 4 and at 16 ranks — the loss trajectory and
// the final weights must match the uninterrupted 8-rank run bit-exactly
// per global batch, FP32 and FP16, with the overlapped exchange on (the
// default). The 16-rank leg also exercises idle hot-spare ranks (world
// larger than the batch).
func TestElasticResume(t *testing.T) {
	const k = 3
	const gb = 8
	for _, prec := range []graph.Precision{graph.FP32, graph.FP16} {
		t.Run(prec.String(), func(t *testing.T) {
			mk := func(ranks int, dir string, steps int, resumeFrom string) Config {
				cfg := elasticConfig(ranks, gb, steps)
				cfg.Precision = prec
				if prec == graph.FP16 {
					cfg.LossScale = 256
				}
				// LARC + gradient lag put state in every optimizer layer
				// the remap must carry across world sizes.
				cfg.UseLARC = true
				cfg.LARCTrust = 0.01
				cfg.GradientLag = 1
				cfg.CheckpointEvery = k
				cfg.CheckpointDir = dir
				cfg.ResumeFrom = resumeFrom
				cfg.ElasticResume = resumeFrom != ""
				return cfg
			}

			// Uninterrupted 8-rank reference, 2k steps.
			refDir := t.TempDir()
			ref, err := Train(mk(8, refDir, 2*k, ""))
			if err != nil {
				t.Fatal(err)
			}
			refW := finalWeights(t, ref)

			// Interrupted 8-rank run: k steps, snapshot, process gone.
			legDir := t.TempDir()
			if _, err := Train(mk(8, legDir, k, "")); err != nil {
				t.Fatal(err)
			}

			for _, ranks := range []int{4, 8, 16} {
				t.Run(fmt.Sprintf("resume_ranks=%d", ranks), func(t *testing.T) {
					dir := t.TempDir()
					resumed, err := Train(mk(ranks, dir, 2*k, legDir))
					if err != nil {
						t.Fatal(err)
					}
					if resumed.StartStep != k {
						t.Fatalf("resumed at step %d, want %d", resumed.StartStep, k)
					}
					// Snapshot bytes can't be compared across world sizes
					// (the Ranks field differs); the contract is the loss
					// trajectory and the weights, bit for bit.
					for i, s := range resumed.History {
						if s.Loss != ref.History[k+i].Loss {
							t.Fatalf("step %d loss %g differs from uninterrupted %g",
								s.Step, s.Loss, ref.History[k+i].Loss)
						}
					}
					w := finalWeights(t, resumed)
					if len(w) != len(refW) {
						t.Fatalf("weight count %d vs reference %d", len(w), len(refW))
					}
					for i := range w {
						if w[i] != refW[i] {
							t.Fatalf("weights diverge at element %d: %g vs %g", i, w[i], refW[i])
						}
					}
				})
			}
		})
	}
}

// TestElasticWorldSizeInvariance pins the stronger form of the contract
// with no resume in the loop at all: the same global batch trained from
// scratch at 1, 2, 4, and 8 ranks produces identical losses every step.
func TestElasticWorldSizeInvariance(t *testing.T) {
	const gb, steps = 8, 4
	var ref *Result
	for _, ranks := range []int{1, 2, 4, 8} {
		res, err := Train(elasticConfig(ranks, gb, steps))
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for i := range res.History {
			if res.History[i].Loss != ref.History[i].Loss {
				t.Fatalf("ranks=%d step %d loss %g, 1-rank reference %g",
					ranks, i, res.History[i].Loss, ref.History[i].Loss)
			}
		}
	}
}

// TestElasticResumeRequiresOptIn: without ElasticResume, a world-size
// change on resume keeps failing — loudly and with the typed error.
func TestElasticResumeRequiresOptIn(t *testing.T) {
	dir := t.TempDir()
	cfg := elasticConfig(4, 4, 2)
	cfg.CheckpointEvery = 2
	cfg.CheckpointDir = dir
	if _, err := Train(cfg); err != nil {
		t.Fatal(err)
	}
	bad := elasticConfig(2, 4, 4)
	bad.ResumeFrom = dir
	if _, err := Train(bad); !errors.Is(err, models.ErrSnapshotRankMismatch) {
		t.Fatalf("resume at a different world size without opt-in: got %v, want ErrSnapshotRankMismatch", err)
	}
}

// faultedFabric builds the node-failure test world: `nodes` single-rank
// nodes over realistic two-level links, wrapped for fault injection.
func faultedFabric(nodes int) *simnet.FaultFabric {
	return simnet.NewFaultFabric(simnet.NewTwoLevelFabric(nodes, 1,
		simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
		simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9}))
}

// TestElasticNodeFailure is the mid-run churn acceptance property: a node
// dies at step 7 of a 12-step 4-rank run; the step drains collectively,
// TrainElastic restarts from the last snapshot on the 3 survivors at the
// same virtual clock, and the stitched run completes, converges, and
// reports one continuous history.
func TestElasticNodeFailure(t *testing.T) {
	const steps = 12
	ff := faultedFabric(4)
	ff.FailNode(2, 7)

	cfg := elasticConfig(4, 4, steps)
	cfg.Fabric = ff
	cfg.CheckpointEvery = 3
	cfg.CheckpointDir = t.TempDir()
	res, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != steps {
		t.Fatalf("stitched history has %d steps, want %d", len(res.History), steps)
	}
	for i, s := range res.History {
		if s.Step != i {
			t.Fatalf("history entry %d is step %d: not continuous", i, s.Step)
		}
	}
	// The restart re-trained steps 6..11 on 3 ranks; the drained step-7
	// attempt left no trace. Virtual time kept running across the failure.
	for i := 1; i < len(res.History); i++ {
		if res.History[i].VirtualTime <= res.History[i-1].VirtualTime {
			t.Fatalf("virtual clock went backwards at step %d", i)
		}
	}
	if !LossImproved(res.History, 0.05) {
		t.Fatalf("churned run did not converge: %.4f → %.4f",
			res.History[0].Loss, res.FinalLoss)
	}
	// Until the failure, the trajectory matches the undisturbed run
	// bit-exactly (same global batch; the drained step was discarded).
	ref, err := Train(elasticConfig(4, 4, steps))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if res.History[i].Loss != ref.History[i].Loss {
			t.Fatalf("pre-failure step %d loss %g differs from undisturbed %g",
				i, res.History[i].Loss, ref.History[i].Loss)
		}
	}
}

// TestClassicNodeFailure: a classic run (GlobalBatch 0) votes a failed
// node through the same exchange flag as an elastic one, so it drains the
// failing step on every rank and returns ErrNodeFailed with the history
// of the steps before it.
func TestClassicNodeFailure(t *testing.T) {
	ff := faultedFabric(4)
	ff.FailNode(2, 5)

	cfg := baseConfig(4, 12)
	cfg.Fabric = ff
	res, err := Train(cfg)
	if !errors.Is(err, ErrNodeFailed) {
		t.Fatalf("err = %v, want ErrNodeFailed", err)
	}
	if res == nil || len(res.History) != 5 {
		t.Fatalf("partial result %+v, want 5 history entries", res)
	}
}

// TestClassicStartClock: a classic run honours StartClock, so its first
// step ends past the pre-advanced clock.
func TestClassicStartClock(t *testing.T) {
	cfg := baseConfig(2, 2)
	cfg.StartClock = 1
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if vt := res.History[0].VirtualTime; vt <= 1 {
		t.Fatalf("first step ends at virtual time %g, want > 1", vt)
	}
}

// TestElasticNodeFailureBeforeFirstCheckpoint: when the failure lands
// before any snapshot committed, the survivors restart from step 0.
func TestElasticNodeFailureBeforeFirstCheckpoint(t *testing.T) {
	ff := faultedFabric(4)
	ff.FailNode(0, 1)

	cfg := elasticConfig(4, 4, 6)
	cfg.Fabric = ff
	cfg.CheckpointEvery = 4
	cfg.CheckpointDir = t.TempDir()
	res, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 6 || res.History[0].Step != 0 {
		t.Fatalf("restarted run history %d entries starting at %d", len(res.History), res.History[0].Step)
	}
}

// TestElasticEASGDChurn exercises the consistency escape hatch: workers
// run elastic-averaging SGD between periodic syncs, survive a node failure
// through the same drain-and-restart machinery, and still converge.
func TestElasticEASGDChurn(t *testing.T) {
	const steps = 12
	ff := faultedFabric(4)
	ff.FailNode(1, 7)

	cfg := elasticConfig(4, 4, steps)
	cfg.Fabric = ff
	cfg.Churn = ChurnPolicy{Mode: ChurnEASGD, Period: 2, Rho: 0.9}
	cfg.CheckpointEvery = 4
	cfg.CheckpointDir = t.TempDir()
	res, err := TrainElastic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != steps {
		t.Fatalf("stitched history has %d steps, want %d", len(res.History), steps)
	}
	if !LossImproved(res.History, 0.05) {
		t.Fatalf("EASGD churned run did not converge: %.4f → %.4f",
			res.History[0].Loss, res.FinalLoss)
	}
}

// TestSnapshotCompaction: the same trained state written compacted must be
// at least 2× smaller, keep the weights bit-for-bit (only Adam moments are
// quantized), and remain a valid resume source.
func TestSnapshotCompaction(t *testing.T) {
	mk := func(dir string, compact bool) Config {
		cfg := elasticConfig(2, 2, 6)
		cfg.CheckpointEvery = 6
		cfg.CheckpointDir = dir
		cfg.SnapshotCompact = compact
		return cfg
	}
	fullDir, compDir := t.TempDir(), t.TempDir()
	if _, err := Train(mk(fullDir, false)); err != nil {
		t.Fatal(err)
	}
	if _, err := Train(mk(compDir, true)); err != nil {
		t.Fatal(err)
	}
	sizeOf := func(dir string) int64 {
		path, _, err := models.LatestSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	full, comp := sizeOf(fullDir), sizeOf(compDir)
	t.Logf("snapshot bytes: full=%d compact=%d (%.2fx)", full, comp, float64(full)/float64(comp))
	if comp*2 > full {
		t.Fatalf("compacted snapshot %d bytes is not ≥2x smaller than %d", comp, full)
	}

	// Weights survive compaction losslessly: both runs trained the same
	// trajectory, so the decoded parameter payloads must be bit-identical.
	load := func(dir string) *models.TrainState {
		path, _, err := models.LatestSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		st, err := models.LoadSnapshotFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fullSt, compSt := load(fullDir), load(compDir)
	if len(fullSt.Params) != len(compSt.Params) {
		t.Fatalf("param count %d vs %d", len(fullSt.Params), len(compSt.Params))
	}
	for i, p := range fullSt.Params {
		q := compSt.Params[i]
		if p.Label != q.Label || len(p.Data) != len(q.Data) {
			t.Fatalf("param %d layout differs", i)
		}
		for j := range p.Data {
			if p.Data[j] != q.Data[j] {
				t.Fatalf("param %q not lossless at element %d: %g vs %g",
					p.Label, j, p.Data[j], q.Data[j])
			}
		}
	}

	// A compacted checkpoint resumes (moments are dequantized, so the
	// continuation is approximate by design — it must simply train).
	cfg := mk(compDir, true)
	cfg.Steps = 8
	cfg.ResumeFrom = compDir
	res, err := Train(cfg)
	if err != nil {
		t.Fatalf("resume from compacted snapshot: %v", err)
	}
	if res.StartStep != 6 || len(res.History) != 2 {
		t.Fatalf("compact resume trained %d steps from %d", len(res.History), res.StartStep)
	}
}
