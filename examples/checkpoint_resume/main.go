// Checkpoint/resume: long training runs on shared HPC systems live inside
// job-queue walltime limits and node failure rates where restart is
// routine, so surviving preemption without losing the trajectory is a
// production requirement. This example exercises the full-state snapshot
// subsystem end to end:
//
//  1. an "interrupted" run trains half its steps with WithCheckpointEvery
//     writing versioned, CRC-guarded snapshots (weights + Adam moments +
//     loss scaler + data cursors + step counter) asynchronously;
//  2. the run is resumed with WithResume and finishes;
//  3. an uninterrupted reference run proves the resumed trajectory is
//     bit-exact — identical per-step losses and a byte-identical final
//     snapshot;
//  4. a deliberately corrupted snapshot shows the typed-error guardrails;
//  5. the weights-only Model.SaveCheckpoint path still serves the
//     ship-to-inference use case: the file is a snapshot holding only the
//     weights, which InspectCheckpoint verifies, and the restore is
//     label+shape matched.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/exaclim"
)

func main() {
	log.SetFlags(0)
	const h, w = 24, 32
	const half, full = 12, 24

	dirA, err := os.MkdirTemp("", "ckpt-resumed")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dirA)
	dirB, err := os.MkdirTemp("", "ckpt-reference")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dirB)

	opts := func(dir string, steps int, extra ...exaclim.Option) []exaclim.Option {
		return append([]exaclim.Option{
			exaclim.WithNetwork("tiramisu", exaclim.Tiny),
			exaclim.WithSyntheticData(h, w, 24, 42),
			exaclim.WithOptimizer("adam"),
			exaclim.WithLR(3e-3),
			exaclim.WithWeighting("sqrt"),
			exaclim.WithRanks(2, 1),
			exaclim.WithSeed(1),
			exaclim.WithSteps(steps),
			exaclim.WithCheckpointDir(dir),
			exaclim.WithCheckpointEvery(half),
			exaclim.WithCheckpointRetain(2),
		}, extra...)
	}
	run := func(o []exaclim.Option) *exaclim.Result {
		exp, err := exaclim.New(o...)
		if err != nil {
			log.Fatal(err)
		}
		res, err := exp.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	// Phase 1: train half the run, then "lose the node". The snapshot
	// writer committed ckpt-<step>.snap atomically off the hot path.
	fmt.Printf("phase 1: training %d of %d steps, then simulating preemption…\n", half, full)
	r1 := run(opts(dirA, half))
	path, step, err := exaclim.LatestCheckpoint(dirA)
	if err != nil {
		log.Fatal(err)
	}
	st, _ := os.Stat(path)
	fmt.Printf("  loss %.1f → %.1f; snapshot at step %d (%d KB, full training state)\n",
		r1.History[0].Loss, r1.FinalLoss, step, st.Size()/1024)

	// Phase 2: resume. Same option list, same WithSteps horizon — the
	// snapshot carries the step counter, so the run continues at step 12.
	fmt.Println("\nphase 2: resuming from the snapshot…")
	r2 := run(opts(dirA, full, exaclim.WithResume(dirA)))
	fmt.Printf("  resumed at step %d, loss %.1f → %.1f\n",
		r2.StartStep, r2.History[0].Loss, r2.FinalLoss)

	// Phase 3: the bit-exactness proof. An uninterrupted run of the same
	// configuration must match the resumed one step for step and byte for
	// byte — weights, Adam moments, loss scaler, and data cursors.
	fmt.Println("\nphase 3: uninterrupted reference run for the bit-exactness proof…")
	r3 := run(opts(dirB, full))
	for i, s := range r2.History {
		if s.Loss != r3.History[r2.StartStep+i].Loss {
			log.Fatalf("step %d: resumed loss %g != uninterrupted %g", s.Step, s.Loss, r3.History[r2.StartStep+i].Loss)
		}
	}
	a, err := os.ReadFile(r2.LastCheckpoint)
	if err != nil {
		log.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dirB, filepath.Base(r2.LastCheckpoint)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  per-step losses identical; final snapshots byte-identical: %v\n", bytes.Equal(a, b))
	if !bytes.Equal(a, b) {
		log.Fatal("resume was not bit-exact")
	}

	// Phase 4: guardrails. A corrupted snapshot is refused with a typed
	// error before any state is applied.
	fmt.Println("\nphase 4: corrupting the snapshot…")
	raw := append([]byte(nil), a...)
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(r2.LastCheckpoint, raw, 0o644); err != nil {
		log.Fatal(err)
	}
	_, err = exaclim.VerifyCheckpoint(r2.LastCheckpoint)
	fmt.Printf("  VerifyCheckpoint: %v (typed: %v)\n", err, errors.Is(err, exaclim.ErrCheckpointCorrupt))
	if !errors.Is(err, exaclim.ErrCheckpointCorrupt) {
		log.Fatal("corrupted snapshot was not refused with the typed error")
	}

	// Phase 5: the weights-only path still ships models to inference — a
	// fresh replica with different init predicts identically after restore.
	fmt.Println("\nphase 5: weights-only checkpoint into a fresh replica…")
	wpath := filepath.Join(dirB, "weights.ckpt")
	if err := r3.Model.SaveCheckpoint(wpath); err != nil {
		log.Fatal(err)
	}
	winfo, err := exaclim.InspectCheckpoint(wpath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  InspectCheckpoint: step %d, ranks %d, %d bytes (weights only)\n",
		winfo.Step, winfo.Ranks, winfo.SizeBytes)
	if winfo.Step != 0 || winfo.Ranks != 0 {
		log.Fatal("weights-only checkpoint reports training state")
	}
	restored, err := exaclim.BuildModel("tiramisu", exaclim.Tiny,
		exaclim.ModelConfig{Height: h, Width: w, Seed: 999})
	if err != nil {
		log.Fatal(err)
	}
	if err := restored.LoadCheckpoint(wpath); err != nil {
		log.Fatal(err)
	}
	sample := exaclim.SyntheticDataset(h, w, 1, 5).Sample(0)
	ma, err := r3.Model.Segment(sample.Fields, exaclim.SegmentConfig{})
	if err != nil {
		log.Fatal(err)
	}
	mb, err := restored.Segment(sample.Fields, exaclim.SegmentConfig{})
	if err != nil {
		log.Fatal(err)
	}
	same := 0
	for j, v := range ma.Data() {
		if mb.Data()[j] == v {
			same++
		}
	}
	fmt.Printf("  prediction agreement: %d/%d pixels identical\n", same, len(ma.Data()))
	if same != len(ma.Data()) {
		log.Fatal("restored model diverged from the original")
	}
}
