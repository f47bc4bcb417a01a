package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool is a size-class buffer pool for kernel workspaces and activation
// storage. It exists because the training hot path used to allocate every
// activation, gradient, and im2col buffer afresh on every step, making the
// step allocator- and GC-bound instead of FLOP-bound (the problem cuDNN's
// workspace API solves on real GPUs).
//
// Small buffers are binned by rounding the requested length up to the next
// power of two, so a freed buffer can serve any later request in the same
// class. Large buffers (above poolExactAlloc elements) are allocated at
// their exact length — rounding a big activation to its class could
// reserve nearly 2× the memory — and binned by exact capacity, which
// reuses perfectly in training loops where the same shapes recur every
// step.
//
// Pool is safe for concurrent use. The zero value is not usable; construct
// with NewPool. Separate side pools serve the float64 and int32 scratch
// that batch-norm statistics and pooling index maps need.
type Pool struct {
	mu   sync.Mutex
	f32  bins[float32]
	f64  bins[float64]
	i32  bins[int32]
	i8   bins[int8]
	free []*Tensor // recycled tensor headers (struct + shape storage)

	gets   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
	bytes  atomic.Uint64 // bytes newly allocated on misses
}

// PoolStats is a snapshot of a pool's traffic counters.
type PoolStats struct {
	Gets   uint64 // buffer requests served
	Misses uint64 // requests that had to allocate fresh memory
	Puts   uint64 // buffers returned for reuse
	Bytes  uint64 // bytes newly allocated on misses
}

// Reuses returns the number of requests served without allocating.
func (s PoolStats) Reuses() uint64 { return s.Gets - s.Misses }

// Add returns the sum of two snapshots (merging per-rank pools).
func (s PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{
		Gets:   s.Gets + o.Gets,
		Misses: s.Misses + o.Misses,
		Puts:   s.Puts + o.Puts,
		Bytes:  s.Bytes + o.Bytes,
	}
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{
		f32: newBins[float32](),
		f64: newBins[float64](),
		i32: newBins[int32](),
		i8:  newBins[int8](),
	}
}

// defaultPool backs any Workspace built with NewWorkspace(nil).
var defaultPool = NewPool()

// DefaultPool returns the shared package-level pool.
func DefaultPool() *Pool { return defaultPool }

// sizeClass returns the power-of-two bin for a request of n elements.
func sizeClass(n int) uint {
	if n <= 1 {
		return 0
	}
	return uint(bits.Len(uint(n - 1)))
}

// poolExactAlloc is the element count above which buffers are allocated
// and binned at exact length instead of power-of-two class capacity.
const poolExactAlloc = 1 << 14

// bins holds the free lists of one element type: power-of-two classes for
// small buffers, exact-capacity bins for large ones. Synchronization is
// the owning Pool's responsibility.
type bins[T any] struct {
	classes map[uint][][]T
	exact   map[int][][]T
}

func newBins[T any]() bins[T] {
	return bins[T]{classes: make(map[uint][][]T), exact: make(map[int][][]T)}
}

// take pops a free buffer able to hold n elements, or returns false.
func (b *bins[T]) take(n int) ([]T, bool) {
	if n > poolExactAlloc {
		if lst := b.exact[n]; len(lst) > 0 {
			buf := lst[len(lst)-1]
			b.exact[n] = lst[:len(lst)-1]
			return buf[:n], true
		}
		return nil, false
	}
	cls := sizeClass(n)
	if lst := b.classes[cls]; len(lst) > 0 {
		buf := lst[len(lst)-1]
		b.classes[cls] = lst[:len(lst)-1]
		return buf[:n], true
	}
	return nil, false
}

// give returns a buffer to the appropriate free list, binning by capacity.
func (b *bins[T]) give(buf []T) {
	c := cap(buf)
	if c > poolExactAlloc {
		b.exact[c] = append(b.exact[c], buf[:0])
		return
	}
	// Bin by capacity so a trimmed slice re-enters its original class; a
	// non-power-of-two capacity (a foreign, GC-allocated buffer adopted by
	// the executor) bins one class down so take never over-slices it.
	cls := sizeClass(c)
	if 1<<cls != c {
		cls--
	}
	b.classes[cls] = append(b.classes[cls], buf[:0])
}

// allocCap returns the capacity to allocate for a fresh buffer of n
// elements: the full class for small buffers, exact length for large ones.
func allocCap(n int) int {
	if c := 1 << sizeClass(n); c <= poolExactAlloc {
		return c
	}
	return n
}

// Stats returns a snapshot of the pool's counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Gets:   p.gets.Load(),
		Misses: p.misses.Load(),
		Puts:   p.puts.Load(),
		Bytes:  p.bytes.Load(),
	}
}

// GetF32 returns a float32 buffer of length n with unspecified contents.
// Callers that need zeroed memory use GetF32Zeroed.
func (p *Pool) GetF32(n int) []float32 {
	p.gets.Add(1)
	if n == 0 {
		return nil
	}
	p.mu.Lock()
	if buf, ok := p.f32.take(n); ok {
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	p.misses.Add(1)
	capN := allocCap(n)
	p.bytes.Add(uint64(4) * uint64(capN))
	return make([]float32, n, capN)
}

// GetF32Zeroed returns a zero-filled float32 buffer of length n.
func (p *Pool) GetF32Zeroed(n int) []float32 {
	buf := p.GetF32(n)
	clear(buf)
	return buf
}

// PutF32 returns a buffer to the pool. The caller must not retain any
// reference (including tensors built over it); nil and zero-length buffers
// are ignored.
func (p *Pool) PutF32(buf []float32) {
	if cap(buf) == 0 {
		return
	}
	p.puts.Add(1)
	p.mu.Lock()
	p.f32.give(buf)
	p.mu.Unlock()
}

// GetF64 returns a float64 scratch buffer of length n (unspecified contents).
func (p *Pool) GetF64(n int) []float64 {
	p.gets.Add(1)
	if n == 0 {
		return nil
	}
	p.mu.Lock()
	if buf, ok := p.f64.take(n); ok {
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	p.misses.Add(1)
	capN := allocCap(n)
	p.bytes.Add(uint64(8) * uint64(capN))
	return make([]float64, n, capN)
}

// PutF64 returns a float64 buffer to the pool.
func (p *Pool) PutF64(buf []float64) {
	if cap(buf) == 0 {
		return
	}
	p.puts.Add(1)
	p.mu.Lock()
	p.f64.give(buf)
	p.mu.Unlock()
}

// GetI32 returns an int32 scratch buffer of length n (unspecified contents).
func (p *Pool) GetI32(n int) []int32 {
	p.gets.Add(1)
	if n == 0 {
		return nil
	}
	p.mu.Lock()
	if buf, ok := p.i32.take(n); ok {
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	p.misses.Add(1)
	capN := allocCap(n)
	p.bytes.Add(uint64(4) * uint64(capN))
	return make([]int32, n, capN)
}

// PutI32 returns an int32 buffer to the pool.
func (p *Pool) PutI32(buf []int32) {
	if cap(buf) == 0 {
		return
	}
	p.puts.Add(1)
	p.mu.Lock()
	p.i32.give(buf)
	p.mu.Unlock()
}

// GetI8 returns an int8 scratch buffer of length n (unspecified contents) —
// quantized activation panels for the INT8 inference kernels.
func (p *Pool) GetI8(n int) []int8 {
	p.gets.Add(1)
	if n == 0 {
		return nil
	}
	p.mu.Lock()
	if buf, ok := p.i8.take(n); ok {
		p.mu.Unlock()
		return buf
	}
	p.mu.Unlock()
	p.misses.Add(1)
	capN := allocCap(n)
	p.bytes.Add(uint64(capN))
	return make([]int8, n, capN)
}

// PutI8 returns an int8 buffer to the pool.
func (p *Pool) PutI8(buf []int8) {
	if cap(buf) == 0 {
		return
	}
	p.puts.Add(1)
	p.mu.Lock()
	p.i8.give(buf)
	p.mu.Unlock()
}

// newHeader returns a recycled (or fresh) tensor header with the given
// shape copied into its reusable shape storage.
func (p *Pool) newHeader(shape Shape) *Tensor {
	p.mu.Lock()
	var t *Tensor
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if t == nil {
		t = &Tensor{}
	}
	t.shape = append(t.shape[:0], shape...)
	return t
}

// NewTensor returns a zero-filled tensor whose storage comes from the pool.
// Release it with ReleaseTensor when it is dead.
func (p *Pool) NewTensor(shape Shape) *Tensor {
	t := p.newHeader(shape)
	t.data = p.GetF32Zeroed(shape.NumElements())
	return t
}

// NewTensorUninit returns a pooled tensor with unspecified contents, for
// outputs every element of which the caller will overwrite.
func (p *Pool) NewTensorUninit(shape Shape) *Tensor {
	t := p.newHeader(shape)
	t.data = p.GetF32(shape.NumElements())
	return t
}

// ReleaseTensor returns a tensor's storage — and its header — to the pool.
// The tensor (and any view sharing its data) must not be used afterwards:
// both the buffer and the *Tensor itself will be handed to later NewTensor
// calls.
func (p *Pool) ReleaseTensor(t *Tensor) {
	if t == nil {
		return
	}
	p.PutF32(t.data)
	t.data = nil
	p.mu.Lock()
	p.free = append(p.free, t)
	p.mu.Unlock()
}

// Workspace is a per-call scratch allocator handed to scratch-aware kernels
// (graph.ScratchOp): im2col/col2im panels, batch-norm temporaries, fused-op
// staging, and op outputs all draw from its pool instead of the Go heap.
// A Workspace is a thin view over a Pool; it is safe for concurrent use to
// the extent the pool is, with SetRows called only between runs.
type Workspace struct {
	pool *Pool
	// rows of capRows: the prefix run in progress (see SetRows).
	rows, capRows int
}

// SetRows declares that the kernels about to run compute the first rows
// rows of a batch planned for capRows. Until the next call, a tensor whose
// leading dimension is rows is carved from a buffer sized for capRows rows,
// so every prefix size reuses the buffers of a full-capacity run instead of
// faulting in a set of its own; only the rows in use are cleared or
// written. SetRows(0, 0) ends the prefix run.
func (w *Workspace) SetRows(rows, capRows int) { w.rows, w.capRows = rows, capRows }

// tensorData returns pooled storage for a tensor of the given shape,
// widened to capRows rows during a prefix run.
func (w *Workspace) tensorData(shape Shape) []float32 {
	n := shape.NumElements()
	if w.rows > 0 && w.rows < w.capRows && len(shape) > 0 && shape[0] == w.rows {
		return w.pool.GetF32(n / w.rows * w.capRows)[:n]
	}
	return w.pool.GetF32(n)
}

// NewWorkspace returns a workspace over the given pool (nil → DefaultPool).
func NewWorkspace(p *Pool) *Workspace {
	if p == nil {
		p = defaultPool
	}
	return &Workspace{pool: p}
}

// Pool returns the backing pool.
func (w *Workspace) Pool() *Pool { return w.pool }

// GetF32 returns scratch of length n (unspecified contents).
func (w *Workspace) GetF32(n int) []float32 { return w.pool.GetF32(n) }

// GetF32Zeroed returns zero-filled scratch of length n.
func (w *Workspace) GetF32Zeroed(n int) []float32 { return w.pool.GetF32Zeroed(n) }

// PutF32 releases scratch obtained from GetF32/GetF32Zeroed.
func (w *Workspace) PutF32(buf []float32) { w.pool.PutF32(buf) }

// GetF64 returns float64 scratch (unspecified contents).
func (w *Workspace) GetF64(n int) []float64 { return w.pool.GetF64(n) }

// PutF64 releases float64 scratch.
func (w *Workspace) PutF64(buf []float64) { w.pool.PutF64(buf) }

// GetI32 returns int32 scratch (unspecified contents).
func (w *Workspace) GetI32(n int) []int32 { return w.pool.GetI32(n) }

// PutI32 releases int32 scratch.
func (w *Workspace) PutI32(buf []int32) { w.pool.PutI32(buf) }

// GetI8 returns int8 scratch (unspecified contents).
func (w *Workspace) GetI8(n int) []int8 { return w.pool.GetI8(n) }

// PutI8 releases int8 scratch.
func (w *Workspace) PutI8(buf []int8) { w.pool.PutI8(buf) }

// NewTensor returns a zero-filled pooled tensor (see Pool.NewTensor).
func (w *Workspace) NewTensor(shape Shape) *Tensor {
	t := w.NewTensorUninit(shape)
	clear(t.data)
	return t
}

// NewTensorUninit returns a pooled tensor with unspecified contents.
func (w *Workspace) NewTensorUninit(shape Shape) *Tensor {
	t := w.pool.newHeader(shape)
	t.data = w.tensorData(shape)
	return t
}

// Release returns a tensor's storage to the pool.
func (w *Workspace) Release(t *Tensor) { w.pool.ReleaseTensor(t) }
