package climate

import (
	"math/rand"
	"testing"
)

func TestGenerateIntoMatchesGenerate(t *testing.T) {
	cfg := DefaultGenConfig(24, 32, 5)
	reused := Generate(cfg, 0) // dirty buffers: filled from sample 0 first
	for _, idx := range []int{3, 0, 7} {
		want := Generate(cfg, idx)
		GenerateInto(cfg, idx, reused)
		if reused.Index != idx {
			t.Fatalf("GenerateInto left Index=%d, want %d", reused.Index, idx)
		}
		for i, v := range want.Fields.Data() {
			if reused.Fields.Data()[i] != v {
				t.Fatalf("sample %d field %d differs after reuse", idx, i)
			}
		}
		for i, v := range want.Labels.Data() {
			if reused.Labels.Data()[i] != v {
				t.Fatalf("sample %d label %d differs after reuse", idx, i)
			}
		}
	}
}

func TestIndexStreamMatchesInlineRNG(t *testing.T) {
	// The contract the trainer relies on: the stream reproduces the
	// historical inline draw rng.Intn(len(indices)) with the per-(seed,
	// rank) derivation, so prefetched runs see identical shards.
	indices := []int{2, 3, 5, 7, 11, 13, 17}
	for rank := 0; rank < 3; rank++ {
		next := newIndexStreamAt(indices, 42, rank, 0)
		rng := rand.New(rand.NewSource(42*1_000_033 + int64(rank)*7919))
		for i := 0; i < 50; i++ {
			want := indices[rng.Intn(len(indices))]
			if got := next(); got != want {
				t.Fatalf("rank %d draw %d: stream %d != inline %d", rank, i, got, want)
			}
		}
	}
}

func TestPrefetcherDeterministicSequence(t *testing.T) {
	// Same seed → the prefetcher yields exactly the samples the inline loop
	// would generate, in order, bit-identical.
	ds := NewDataset(DefaultGenConfig(16, 24, 9), 20)
	indices := ds.Indices(Train)
	const rank, seed, draws = 1, 7, 12

	next := newIndexStreamAt(indices, seed, rank, 0)
	p := NewPrefetcherAt(ds, indices, seed, rank, 2, 0)
	defer p.Stop()
	for i := 0; i < draws; i++ {
		wantIdx := next()
		want := ds.Sample(wantIdx)
		got := p.Next()
		if got == nil {
			t.Fatal("prefetcher stopped early")
		}
		if got.Index != wantIdx {
			t.Fatalf("draw %d: prefetched sample %d, inline loop draws %d", i, got.Index, wantIdx)
		}
		for j, v := range want.Fields.Data() {
			if got.Fields.Data()[j] != v {
				t.Fatalf("draw %d: field %d differs from inline generation", i, j)
			}
		}
		for j, v := range want.Labels.Data() {
			if got.Labels.Data()[j] != v {
				t.Fatalf("draw %d: label %d differs from inline generation", i, j)
			}
		}
		p.Recycle(got)
	}
}

func TestPrefetcherRanksDiffer(t *testing.T) {
	ds := NewDataset(DefaultGenConfig(16, 16, 3), 30)
	indices := ds.Indices(Train)
	a := NewPrefetcherAt(ds, indices, 5, 0, 1, 0)
	b := NewPrefetcherAt(ds, indices, 5, 1, 1, 0)
	defer a.Stop()
	defer b.Stop()
	differ := false
	for i := 0; i < 8; i++ {
		sa, sb := a.Next(), b.Next()
		if sa.Index != sb.Index {
			differ = true
		}
		a.Recycle(sa)
		b.Recycle(sb)
	}
	if !differ {
		t.Fatal("rank 0 and rank 1 drew identical 8-sample shards")
	}
}

func TestPrefetcherStopUnblocks(t *testing.T) {
	ds := NewDataset(DefaultGenConfig(8, 8, 3), 10)
	indices := ds.Indices(Train)
	p := NewPrefetcherAt(ds, indices, 1, 0, 2, 0)
	s := p.Next()
	p.Stop()
	p.Stop() // idempotent
	p.Recycle(s)
	if got := p.Next(); got != nil {
		// A buffered sample may legally still be delivered; drain until nil.
		for got != nil {
			p.Recycle(got)
			got = p.Next()
		}
	}
}
