// Package pipeline implements the paper's optimized data-ingestion path
// (Section V-A2): a pool of reader workers pulls samples from a source,
// computes the per-pixel loss weight map on the CPU, assembles batches,
// and pushes them into a bounded prefetch queue so the training loop never
// waits on input as long as production keeps up with consumption. Reader
// pools come in two flavours mirroring the paper: ThreadMode workers share
// one h5lite library instance (and serialize on its lock, as TensorFlow's
// threaded map over HDF5 did) while ProcessMode workers get independent
// instances (the multiprocessing fix).
package pipeline

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/climate"
	"repro/internal/h5lite"
	"repro/internal/loss"
	"repro/internal/tensor"
)

// Source yields raw samples by index.
type Source interface {
	NumSamples() int
	// Load returns fields [C,H,W] and labels [H,W] for sample i. worker
	// identifies the calling reader so file-backed sources can hand out
	// per-worker library instances. Must be safe for concurrent calls
	// with distinct workers.
	Load(worker, i int) (fields, labels *tensor.Tensor, err error)
	// Meta returns the sample shape.
	Meta() (channels, height, width int)
}

// generatorSource wraps the procedural climate generator as a Source.
type generatorSource struct {
	Dataset *climate.Dataset
}

// NumSamples implements Source.
func (g generatorSource) NumSamples() int { return g.Dataset.Size }

// Meta implements Source.
func (g generatorSource) Meta() (int, int, int) {
	return climate.NumChannels, g.Dataset.Cfg.Height, g.Dataset.Cfg.Width
}

// Load implements Source.
func (g generatorSource) Load(_, i int) (*tensor.Tensor, *tensor.Tensor, error) {
	s := g.Dataset.Sample(i)
	return s.Fields, s.Labels, nil
}

// ReaderMode selects how file-backed workers share library instances.
type ReaderMode int

const (
	// ThreadMode: all workers share one library instance, serializing on
	// its internal lock (the pre-optimization TensorFlow behaviour).
	ThreadMode ReaderMode = iota
	// ProcessMode: each worker owns a library instance (the paper's
	// Python-multiprocessing fix), so reads proceed in parallel.
	ProcessMode
)

// String names the mode.
func (m ReaderMode) String() string {
	if m == ProcessMode {
		return "process"
	}
	return "thread"
}

// FileSource reads from an h5lite file with per-worker library handles
// allocated according to the mode.
type FileSource struct {
	path        string
	mode        ReaderMode
	decodeDelay time.Duration

	mu     sync.Mutex
	shared *h5lite.Library
	files  map[int]*h5lite.File
	meta   h5lite.Meta
	count  int
}

// NewFileSource opens path for the given mode. decodeDelay models the
// per-sample decode cost under the library lock.
func NewFileSource(path string, mode ReaderMode, decodeDelay time.Duration) (*FileSource, error) {
	fs := &FileSource{
		path:        path,
		mode:        mode,
		decodeDelay: decodeDelay,
		files:       map[int]*h5lite.File{},
		shared:      h5lite.NewLibrary(decodeDelay),
	}
	probe, err := fs.shared.Open(path)
	if err != nil {
		return nil, err
	}
	fs.meta = probe.Meta()
	fs.count = probe.NumSamples()
	probe.Close()
	return fs, nil
}

// NumSamples implements Source.
func (fs *FileSource) NumSamples() int { return fs.count }

// Meta implements Source.
func (fs *FileSource) Meta() (int, int, int) {
	return fs.meta.Channels, fs.meta.Height, fs.meta.Width
}

// file returns the worker's file handle, opening it on first use through
// the mode-appropriate library instance.
func (fs *FileSource) file(worker int) (*h5lite.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[worker]; ok {
		return f, nil
	}
	lib := fs.shared
	if fs.mode == ProcessMode {
		lib = h5lite.NewLibrary(fs.decodeDelay)
	}
	f, err := lib.Open(fs.path)
	if err != nil {
		return nil, err
	}
	fs.files[worker] = f
	return f, nil
}

// Load implements Source.
func (fs *FileSource) Load(worker, i int) (*tensor.Tensor, *tensor.Tensor, error) {
	f, err := fs.file(worker)
	if err != nil {
		return nil, nil, err
	}
	fields, labels, err := f.ReadSample(i)
	if err != nil {
		return nil, nil, err
	}
	ft := tensor.FromSlice(tensor.Shape{fs.meta.Channels, fs.meta.Height, fs.meta.Width}, fields)
	lt := tensor.FromSlice(tensor.Shape{fs.meta.Height, fs.meta.Width}, labels)
	return ft, lt, nil
}

// Close closes all worker handles.
func (fs *FileSource) Close() {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		f.Close()
	}
	fs.files = map[int]*h5lite.File{}
}

// Batch is one training step's input: images, integer labels, and the
// per-pixel loss weight map computed in the pipeline (Section V-B1).
type Batch struct {
	Images  *tensor.Tensor // [N, C, H, W]
	Labels  *tensor.Tensor // [N, H, W]
	Weights *tensor.Tensor // [N, H, W]
}

// Config sets up a Pipeline.
type Config struct {
	BatchSize     int
	Readers       int // parallel reader workers (the paper settled on 4)
	PrefetchDepth int // bounded queue length (batches)
	ClassWeights  []float32
	Seed          int64
	// Epochs limits how many passes over the index set the pipeline
	// produces; 0 means run until Stop.
	Epochs int
	// Indices restricts sampling to these sample indices (e.g. a rank's
	// staged shard). Empty means the whole source.
	Indices []int
}

// Pipeline is a running prefetching input pipeline.
type Pipeline struct {
	cfg     Config
	src     Source
	out     chan *Batch
	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
	err     error
	errMu   sync.Mutex
}

// New starts a pipeline over src. Callers must eventually call Stop.
func New(src Source, cfg Config) (*Pipeline, error) {
	if cfg.BatchSize < 1 {
		return nil, fmt.Errorf("pipeline: batch size %d", cfg.BatchSize)
	}
	if cfg.Readers < 1 {
		cfg.Readers = 1
	}
	if cfg.PrefetchDepth < 1 {
		cfg.PrefetchDepth = 2
	}
	if len(cfg.ClassWeights) == 0 {
		cfg.ClassWeights = []float32{1, 1, 1}
	}
	indices := cfg.Indices
	if len(indices) == 0 {
		indices = make([]int, src.NumSamples())
		for i := range indices {
			indices[i] = i
		}
	}
	if len(indices) < cfg.BatchSize {
		return nil, fmt.Errorf("pipeline: %d indices < batch %d", len(indices), cfg.BatchSize)
	}

	p := &Pipeline{
		cfg:  cfg,
		src:  src,
		out:  make(chan *Batch, cfg.PrefetchDepth),
		stop: make(chan struct{}),
	}

	// The index feed: shuffled epochs of sample indices.
	idxCh := make(chan int, cfg.Readers*cfg.BatchSize)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(idxCh)
		rng := rand.New(rand.NewSource(cfg.Seed))
		epoch := 0
		for cfg.Epochs == 0 || epoch < cfg.Epochs {
			perm := rng.Perm(len(indices))
			for _, j := range perm {
				select {
				case idxCh <- indices[j]:
				case <-p.stop:
					return
				}
			}
			epoch++
		}
	}()

	// Loaded-sample channel feeding the batch assembler.
	type loaded struct {
		fields, labels *tensor.Tensor
	}
	loadedCh := make(chan loaded, cfg.Readers*2)
	var readersWG sync.WaitGroup
	for wkr := 0; wkr < cfg.Readers; wkr++ {
		readersWG.Add(1)
		p.wg.Add(1)
		go func(worker int) {
			defer p.wg.Done()
			defer readersWG.Done()
			for i := range idxCh {
				f, l, err := src.Load(worker, i)
				if err != nil {
					p.setErr(err)
					return
				}
				select {
				case loadedCh <- loaded{f, l}:
				case <-p.stop:
					return
				}
			}
		}(wkr)
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		readersWG.Wait()
		close(loadedCh)
	}()

	// Batch assembler: collects BatchSize samples, computes weight maps,
	// emits to the bounded prefetch queue.
	c, h, w := src.Meta()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer close(p.out)
		for {
			images := tensor.New(tensor.NCHW(cfg.BatchSize, c, h, w))
			labels := tensor.New(tensor.Shape{cfg.BatchSize, h, w})
			got := 0
			for got < cfg.BatchSize {
				ld, ok := <-loadedCh
				if !ok {
					return
				}
				copy(images.Data()[got*c*h*w:], ld.fields.Data())
				copy(labels.Data()[got*h*w:], ld.labels.Data())
				got++
			}
			weights := loss.WeightMap(labels, p.cfg.ClassWeights)
			select {
			case p.out <- &Batch{Images: images, Labels: labels, Weights: weights}:
			case <-p.stop:
				return
			}
		}
	}()
	return p, nil
}

// setErr records the first worker error and signals shutdown. It must not
// wait on the worker WaitGroup: it is called from worker goroutines that are
// themselves tracked by the group.
func (p *Pipeline) setErr(err error) {
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
	p.stopped.Do(func() { close(p.stop) })
}

// Err returns the first worker error, if any.
func (p *Pipeline) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// Next returns the next prefetched batch, or nil when the pipeline is
// exhausted (epoch limit reached) or stopped.
func (p *Pipeline) Next() *Batch {
	b, ok := <-p.out
	if !ok {
		return nil
	}
	return b
}

// Stop terminates the pipeline and waits for workers to exit.
func (p *Pipeline) Stop() {
	p.stopped.Do(func() { close(p.stop) })
	// Drain so blocked producers can observe the stop.
	go func() {
		for range p.out {
		}
	}()
	p.wg.Wait()
}
