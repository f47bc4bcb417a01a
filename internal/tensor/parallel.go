package tensor

import (
	"runtime"
	"sync/atomic"
)

// parallelismV is the most workers one kernel call fans out to. It
// defaults to GOMAXPROCS; 1 makes every kernel run serially. Stored
// atomically: kernels read it concurrently with runs that adjust it
// (core.Config.KernelWorkers).
var parallelismV atomic.Int64

func init() { parallelismV.Store(int64(runtime.GOMAXPROCS(0))) }

// SetParallelism sets the kernel worker count (minimum 1) and returns the
// previous value.
func SetParallelism(n int) int {
	if n < 1 {
		n = 1
	}
	return int(parallelismV.Swap(int64(n)))
}

// Parallelism returns the current kernel worker count.
func Parallelism() int { return int(parallelismV.Load()) }

// fanoutChunkWork is the fan-out gate: the least work — FLOPs for an
// arithmetic kernel, bytes moved for a copy — one chunk must carry before
// waking a pool worker for it pays, so a call runs inline below twice
// that. It is read off BenchmarkFanoutLadder (fanout_bench_test.go): on
// the 2-core reference host a two-way split first gains ≥ 1.15× at
// 37.7 MFLOP per call for the GEMM ladder (1.04–1.09× at 18.9), at 25 MB
// for axpy and at 9.4 MB for im2col — a quarter to half a millisecond of
// kernel time, two orders above the ≈1 µs of an empty dispatch
// (BenchmarkFanoutDispatch), because a worker that has parked must be
// woken through the OS and the two cores share a memory system. Every
// kernel of a 16×16–32×32 tile is one to three orders below it. Re-measure
// on new hardware with
//
//	go test -run '^$' -bench 'FanoutDispatch|FanoutLadder' ./internal/tensor
const fanoutChunkWork = 1 << 24

// fanout is the one gate every kernel fan-out decides through: into how
// many chunks a call over n independent indices, of the given estimated
// work, should split. It depends on nothing but the call's own size and
// the worker count; 1 means run inline. Kernels evaluate it before they
// build the closure parallelFor needs, so a call below the gate allocates
// nothing. No kernel reduces across chunks, so results are bit-identical
// for every return value.
func fanout(n, work int) int {
	return max(1, min(Parallelism(), n, work/fanoutChunkWork))
}

// parallelFor splits [0, n) into contiguous chunks — the count fanout
// returned — and invokes body(lo, hi) on each from the persistent pool
// (workpool.go): the caller runs chunk 0, pool worker w always runs chunk
// w. body must be safe to call concurrently on disjoint ranges. A busy
// pool (nested or concurrent fan-out) runs the whole range inline: one
// caller keeps the workers saturated, the others make progress serially.
func parallelFor(n, chunks int, body func(lo, hi int)) {
	if !kernelPool.run(n, chunks, body) {
		body(0, n)
	}
}
