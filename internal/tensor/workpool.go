package tensor

import (
	"sync"
	"sync/atomic"
)

// workPool is the persistent worker pool behind parallelFor: one
// long-lived plain goroutine per chunk slot, woken over a capacity-1
// channel, so a dispatch allocates nothing and creates no goroutine.
//
//   - Worker w always executes chunk w, and the calling goroutine executes
//     chunk 0 and then waits on a capacity-1 done channel signalled by the
//     last finishing worker. The block→worker assignment is therefore
//     deterministic; which core a worker runs on is the Go scheduler's
//     business (workers used to lock and pin their OS threads, which cost
//     a futex round-trip per wake — ≈45 µs per dispatch against ≈1 µs
//     now, see BenchmarkFanoutDispatch — and bought no measurable
//     locality).
//   - One fan-out runs at a time (the pool mutex); a nested or concurrent
//     parallelFor fails the TryLock and runs inline on its caller, so the
//     pool can never deadlock or oversubscribe the cores.
//
// Workers are spawned lazily up to the largest chunk count ever requested
// and live for the process duration.
type workPool struct {
	mu    sync.Mutex
	wakes []chan struct{} // wakes[w-1] wakes the worker owning chunk w

	// Job state, written under mu before the wakes, read by woken workers
	// (the channel send orders the writes before the reads).
	body    func(lo, hi int)
	n, per  int
	pending atomic.Int64
	done    chan struct{}
}

var kernelPool = &workPool{done: make(chan struct{}, 1)}

// run executes body over [0, n) in at most the given number of contiguous
// chunks of ceil(n/chunks) indices each. It returns false, having done
// nothing, when the pool is busy or the range collapses to one chunk.
func (p *workPool) run(n, chunks int, body func(lo, hi int)) bool {
	if chunks < 2 || n < 2 || !p.mu.TryLock() {
		return false
	}
	per := (n + chunks - 1) / chunks
	chunks = (n + per - 1) / per // ≥ 2: per < n
	for len(p.wakes) < chunks-1 {
		// First fan-out this wide: spawn the missing workers. The steady
		// state allocates nothing.
		wake := make(chan struct{}, 1)
		p.wakes = append(p.wakes, wake)
		go p.worker(len(p.wakes), wake)
	}
	p.body, p.n, p.per = body, n, per
	p.pending.Store(int64(chunks - 1))
	for w := 1; w < chunks; w++ {
		p.wakes[w-1] <- struct{}{}
	}
	body(0, per)
	<-p.done
	p.body = nil
	p.mu.Unlock()
	return true
}

// worker owns chunk id w of every fan-out wide enough to include it.
func (p *workPool) worker(w int, wake chan struct{}) {
	for range wake {
		lo := w * p.per
		p.body(lo, min(lo+p.per, p.n))
		// The caller may start the next job the instant done is signalled,
		// so no job field is touched past this decrement.
		if p.pending.Add(-1) == 0 {
			p.done <- struct{}{}
		}
	}
}
