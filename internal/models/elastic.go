package models

import (
	"errors"
	"fmt"
)

// Elastic rescale: carrying a TrainState across world sizes.
//
// The paper's setting is an HPC batch queue — the next allocation rarely
// matches the last, so a snapshot pinned to its rank count throws away all
// optimizer and cursor state on requeue. The v3 format breaks the pin by
// separating two concepts the legacy trainer fused:
//
//   - the GLOBAL BATCH: GlobalBatch data-parallel sample columns per step,
//     a property of the experiment (it determines the gradient), and
//   - the WORLD SIZE: Ranks workers, a property of the allocation (it
//     determines who computes which columns).
//
// Every replicated piece of a snapshot — weights, optimizer moments, the
// LagN gradient queue (post-reduction sums), the loss scaler — is already
// world-size independent, so rescaling is a relabeling: RemapTrainState
// re-stamps the rank count, and ShardColumns tells each new rank which
// columns (and therefore which per-column data cursors) it now owns. The
// concatenated column index sequence is identical under every sharding,
// which is what preserves the global sample sequence.

// ErrSnapshotRankMismatch: a resume was attempted at a world size the
// snapshot does not fit and elastic resume was not requested. Matched with
// errors.Is.
var ErrSnapshotRankMismatch = errors.New("models: snapshot world size does not match the run")

// RemapTrainState rescales a snapshot to a new world size in place. The
// replicated state (weights, optimizer tree, scaler, histories) carries
// over untouched; the per-column cursors are already world-size independent
// and re-sharded by the trainer via ShardColumns. Legacy snapshots (zero
// GlobalBatch) pin the global batch to the rank count they were taken at,
// so their column structure survives the remap too. A state with no columns
// — a weights-only checkpoint — is refused with ErrSnapshotRankMismatch.
func RemapTrainState(st *TrainState, newRanks int) error {
	if newRanks < 1 {
		return fmt.Errorf("models: cannot remap snapshot to %d ranks", newRanks)
	}
	if st.GlobalBatch == 0 {
		st.GlobalBatch = st.Ranks
	}
	if st.GlobalBatch < 1 {
		return fmt.Errorf("%w: snapshot carries no data columns (a weights-only checkpoint cannot resume training)",
			ErrSnapshotRankMismatch)
	}
	if len(st.Cursors) != st.GlobalBatch {
		return fmt.Errorf("%w: snapshot carries %d data cursors for a global batch of %d columns",
			ErrSnapshotRankMismatch, len(st.Cursors), st.GlobalBatch)
	}
	st.Ranks = newRanks
	return nil
}

// ShardColumns maps one rank to its half-open range [lo, hi) of global-batch
// columns. The assignment is contiguous and in column order on every world
// size, so concatenating the ranges over ranks 0..ranks-1 always yields
// columns 0..globalBatch-1 exactly once — the invariant that keeps the
// global sample sequence identical across reshardings (the property test in
// models exercises divisible and non-divisible rank counts alike).
//
// When the world is larger than the global batch, the first globalBatch
// ranks take one column each and the rest are idle (hi == lo). Keeping the
// active ranks a prefix is load-balancing-neutral here and lets the
// canonical reduction tree mask idle ranks without reshaping.
func ShardColumns(globalBatch, ranks, rank int) (lo, hi int) {
	if globalBatch < 1 || ranks < 1 || rank < 0 || rank >= ranks {
		return 0, 0
	}
	if ranks >= globalBatch {
		return min(rank, globalBatch), min(rank+1, globalBatch)
	}
	return rank * globalBatch / ranks, (rank + 1) * globalBatch / ranks
}
