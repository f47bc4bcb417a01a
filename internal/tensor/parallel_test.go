package tensor

import (
	"sync"
	"testing"
)

// TestParallelForChunks covers the chunk geometry: at most the requested
// number of chunks, every chunk ceil(n/chunks) long except the final
// remainder, every index visited exactly once, and the same spans on every
// call (chunk w always lands on pool worker w, so the spans are the
// block→worker assignment).
func TestParallelForChunks(t *testing.T) {
	for _, tc := range []struct{ n, chunks int }{
		{100, 2}, {65, 64}, {640, 8}, {7, 1}, {1000, 4}, {8, 3}, {4096, 5}, {3, 8}, {1, 4}, {0, 2},
	} {
		var first map[[2]int]bool
		for trial := 0; trial < 3; trial++ {
			var mu sync.Mutex
			visited := make([]int, tc.n)
			spans := map[[2]int]bool{}
			parallelFor(tc.n, tc.chunks, func(lo, hi int) {
				mu.Lock()
				defer mu.Unlock()
				spans[[2]int{lo, hi}] = true
				for i := lo; i < hi; i++ {
					visited[i]++
				}
			})
			for i, v := range visited {
				if v != 1 {
					t.Fatalf("n=%d chunks=%d: index %d visited %d times", tc.n, tc.chunks, i, v)
				}
			}
			if len(spans) > max(1, tc.chunks) {
				t.Errorf("n=%d chunks=%d: ran %d chunks", tc.n, tc.chunks, len(spans))
			}
			per := (tc.n + max(1, tc.chunks) - 1) / max(1, tc.chunks)
			for s := range spans {
				if len(spans) > 1 && s[1]-s[0] != per && s[1] != tc.n {
					t.Errorf("n=%d chunks=%d: non-final chunk %v is not %d long", tc.n, tc.chunks, s, per)
				}
			}
			if first == nil {
				first = spans
			}
			for s := range spans {
				if !first[s] {
					t.Fatalf("n=%d chunks=%d trial %d: span %v not in the first call's %v", tc.n, tc.chunks, trial, s, first)
				}
			}
		}
	}
}

// TestFanoutGate: the gate depends only on the call's own size and the
// worker count — inline below two chunks' worth of work, never more chunks
// than workers or indices, and a 256×512×512 product (the benchmark's
// fan-out probe) splits at any worker count above one.
func TestFanoutGate(t *testing.T) {
	defer SetParallelism(Parallelism())
	const g = fanoutChunkWork
	for _, tc := range []struct{ workers, n, work, want int }{
		{1, 1 << 20, 100 * g, 1},
		{2, 1 << 20, 2*g - 1, 1},
		{2, 1 << 20, 2 * g, 2},
		{2, 1 << 20, 100 * g, 2},
		{5, 1 << 20, 3 * g, 3},
		{5, 1 << 20, 100 * g, 5},
		{5, 2, 100 * g, 2},
		{5, 1, 100 * g, 1},
		{5, 0, 0, 1},
		{2, 2, 2 * 256 * 512 * 256, 2}, // one K block of the 256×512×512 product over its two M blocks
	} {
		SetParallelism(tc.workers)
		if got := fanout(tc.n, tc.work); got != tc.want {
			t.Errorf("workers=%d fanout(%d, %d) = %d, want %d", tc.workers, tc.n, tc.work, got, tc.want)
		}
	}
}

func TestSetParallelismClampsToOne(t *testing.T) {
	prev := SetParallelism(-3)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism() = %d after SetParallelism(-3)", Parallelism())
	}
	SetParallelism(prev)
}
