package models

import (
	"errors"
	"testing"

	"repro/internal/climate"
)

// TestShardColumnsPartition is the sharding property behind the elastic
// determinism contract: for every global batch and world size — divisible
// or not, world larger than the batch or not — the per-rank column ranges
// concatenated in rank order cover [0, globalBatch) exactly once, in
// order. That makes the concatenated global index sequence a function of
// the global batch alone.
func TestShardColumnsPartition(t *testing.T) {
	for _, gb := range []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24} {
		for _, ranks := range []int{1, 2, 3, 4, 5, 8, 16, 32} {
			next := 0
			for r := 0; r < ranks; r++ {
				lo, hi := ShardColumns(gb, ranks, r)
				if lo != next {
					t.Fatalf("gb=%d ranks=%d rank=%d starts at %d, want %d", gb, ranks, r, lo, next)
				}
				if hi < lo {
					t.Fatalf("gb=%d ranks=%d rank=%d empty-inverted range [%d,%d)", gb, ranks, r, lo, hi)
				}
				next = hi
			}
			if next != gb {
				t.Fatalf("gb=%d ranks=%d covers %d columns", gb, ranks, next)
			}
			if ranks >= gb {
				// Prefix-active: the first gb ranks own one column each.
				for r := 0; r < ranks; r++ {
					lo, hi := ShardColumns(gb, ranks, r)
					if r < gb && (lo != r || hi != r+1) {
						t.Fatalf("gb=%d ranks=%d rank=%d owns [%d,%d), want [%d,%d)", gb, ranks, r, lo, hi, r, r+1)
					}
					if r >= gb && lo != hi {
						t.Fatalf("gb=%d ranks=%d rank=%d should be idle, owns [%d,%d)", gb, ranks, r, lo, hi)
					}
				}
			}
		}
	}
	// Out-of-range queries are empty, never panics.
	for _, bad := range [][3]int{{0, 4, 0}, {4, 0, 0}, {4, 4, -1}, {4, 4, 4}} {
		if lo, hi := ShardColumns(bad[0], bad[1], bad[2]); lo != 0 || hi != 0 {
			t.Fatalf("ShardColumns%v = [%d,%d), want empty", bad, lo, hi)
		}
	}
}

// TestGlobalIndexSequenceInvariant draws real samples: the global sample
// sequence — each column's prefetched dataset indices, concatenated in
// column order — is identical no matter how many ranks carry the columns,
// including non-divisible shardings (3 and 5 ranks over a batch of 8).
func TestGlobalIndexSequenceInvariant(t *testing.T) {
	const gb, draws, seed = 8, 6, 21
	ds := climate.NewDataset(climate.DefaultGenConfig(16, 16, seed), 24)
	idx := ds.Indices(climate.Train)

	sequence := func(ranks int) [][]int {
		seq := make([][]int, gb)
		for r := 0; r < ranks; r++ {
			lo, hi := ShardColumns(gb, ranks, r)
			for col := lo; col < hi; col++ {
				pf := climate.NewPrefetcherAt(ds, idx, seed, col, 2, 0)
				for d := 0; d < draws; d++ {
					s := pf.Next()
					seq[col] = append(seq[col], s.Index)
					pf.Recycle(s)
				}
				pf.Stop()
			}
		}
		return seq
	}

	ref := sequence(1)
	for _, ranks := range []int{2, 3, 4, 5, 8, 16} {
		got := sequence(ranks)
		for col := range ref {
			if len(got[col]) != len(ref[col]) {
				t.Fatalf("ranks=%d column %d drew %d samples, want %d", ranks, col, len(got[col]), len(ref[col]))
			}
			for d := range ref[col] {
				if got[col][d] != ref[col][d] {
					t.Fatalf("ranks=%d column %d draw %d: index %d, 1-rank reference %d",
						ranks, col, d, got[col][d], ref[col][d])
				}
			}
		}
	}
}

// TestRemapTrainState covers the rescale rules: the cursor count must match
// the snapshot's global batch (not the old world size), legacy snapshots
// backfill GlobalBatch from Ranks, and bad targets and weights-only states
// fail typed.
func TestRemapTrainState(t *testing.T) {
	st := &TrainState{Ranks: 8, GlobalBatch: 8, Cursors: make([]uint64, 8)}
	if err := RemapTrainState(st, 4); err != nil {
		t.Fatal(err)
	}
	if st.Ranks != 4 || st.GlobalBatch != 8 || len(st.Cursors) != 8 {
		t.Fatalf("remapped state ranks=%d gb=%d cursors=%d", st.Ranks, st.GlobalBatch, len(st.Cursors))
	}

	// Legacy (v2) snapshot: GlobalBatch 0 means one column per old rank.
	st = &TrainState{Ranks: 4, Cursors: make([]uint64, 4)}
	if err := RemapTrainState(st, 16); err != nil {
		t.Fatal(err)
	}
	if st.GlobalBatch != 4 || st.Ranks != 16 {
		t.Fatalf("legacy remap ranks=%d gb=%d", st.Ranks, st.GlobalBatch)
	}

	// Cursor/global-batch disagreement is the typed rank-mismatch error.
	st = &TrainState{Ranks: 4, GlobalBatch: 8, Cursors: make([]uint64, 4)}
	if err := RemapTrainState(st, 2); !errors.Is(err, ErrSnapshotRankMismatch) {
		t.Fatalf("cursor mismatch: got %v, want ErrSnapshotRankMismatch", err)
	}

	// A weights-only checkpoint has no columns to resume.
	if err := RemapTrainState(&TrainState{}, 4); !errors.Is(err, ErrSnapshotRankMismatch) {
		t.Fatalf("weights-only state: got %v, want ErrSnapshotRankMismatch", err)
	}

	if err := RemapTrainState(&TrainState{}, 0); err == nil {
		t.Fatal("remap to 0 ranks must fail")
	}
}
