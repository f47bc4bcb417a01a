// Package repro is a from-scratch Go reproduction of "Exascale Deep
// Learning for Climate Analytics" (Kurth et al., SC18, Gordon Bell Prize):
// pixel-level segmentation of extreme weather patterns with Tiramisu and
// DeepLabv3+ networks, scaled by data-parallel training with hierarchical
// collective coordination, hybrid all-reduces, distributed data staging,
// and mixed precision — grown, PR by PR, into a production-shaped system.
//
// The public API is the exaclim package; it is the only supported entry
// point, and no binary touches the internals directly. It spans the four
// subsystems the repository has grown:
//
//   - Training: exaclim.New(options...) resolves name-based registries
//     (networks, optimizers, loss weightings) into an Experiment; Run
//     executes synchronous data-parallel training across simulated ranks
//     with workspace-planned execution memory (pooled tensors, packed
//     blocked GEMM, fused kernels) and an overlapped gradient exchange
//     (fused buckets reduced behind the backward pass, optional FP16
//     wire), streaming progress to observers and cancelling collectively
//     through a context.
//   - Serving: Result.Model wraps the trained network for single-shot
//     tiled Segment calls, and NewServer turns it into a concurrent
//     service — bounded admission queue, cross-request tile
//     micro-batching, replica workers, per-request cancellation — with
//     bit-identical masks at every batch size and scheduling.
//   - Fault tolerance: WithCheckpointEvery/WithCheckpointDir write
//     versioned, CRC-guarded full-training-state snapshots (weights,
//     optimizer moments, FP16 loss scaler, per-rank data cursors, step
//     counter) from an asynchronous double-buffered writer with atomic
//     commit and retention; WithResume continues an interrupted run
//     bit-exactly — resume(k steps) equals never having stopped.
//     LatestCheckpoint/VerifyCheckpoint and typed load errors are the
//     operator surface; README.md carries the operations runbook.
//   - Analysis: BuildModel with a symbolic ModelConfig analyzes the
//     paper-exact networks at full 1152×768×16 scale (kernel tables,
//     scaling models) without allocating gigabytes.
//
// The root package holds the reproduction tests (reproduction_test.go):
// the paper's training claims from Fig 6 and Section V-B, asserted at Tiny
// scale on a fixed seed set. README.md maps every figure and section of
// the paper's evaluation to the test or command that reproduces it, and
// the gated benchmark lives under bench/. The library internals live
// under internal/ (30 packages, inventoried in DESIGN.md), the
// executables under cmd/, and runnable walkthroughs under examples/.
package repro
