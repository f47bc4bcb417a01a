package climate

import (
	"math/rand"
	"sync"

	"repro/internal/tensor"
)

// newIndexStreamAt returns a rank's deterministic sample-index stream,
// fast-forwarded past the first skip draws: each call draws uniformly from
// indices with a generator seeded per (seed, rank), so shards differ across
// ranks but every run — and the inline and prefetched data paths — see the
// identical sequence. The derivation matches the trainer's historical
// per-rank RNG exactly, so enabling the prefetcher does not change which
// samples a run trains on. The stream's RNG state is a pure function of
// (seed, rank, draws consumed), so a training run resuming from a
// checkpoint taken after k steps reproduces the interrupted run's
// remaining sample sequence exactly by replaying and discarding the k draws
// it already trained on — the cursor IS the RNG state.
func newIndexStreamAt(indices []int, seed int64, rank int, skip uint64) func() int {
	rng := rand.New(rand.NewSource(seed*1_000_033 + int64(rank)*7919))
	for i := uint64(0); i < skip; i++ {
		rng.Intn(len(indices))
	}
	return func() int { return indices[rng.Intn(len(indices))] }
}

// Prefetcher generates a rank's training samples on a background goroutine
// so data generation overlaps the training step — the staged input
// pipeline of the paper's Section V-A1, scaled to one rank. Samples cycle
// through depth+1 preallocated slots (depth 2 = classic double buffering):
// Next hands the consumer a finished sample from a bounded channel while
// the generator is already filling the next slot, and Recycle returns the
// slot once its contents have been copied into the step's feed tensors.
// The index sequence is the rank's deterministic index stream, so a
// prefetched run trains on exactly the samples the inline loop would.
type Prefetcher struct {
	ready chan *Sample
	free  chan *Sample
	stop  chan struct{}
	once  sync.Once
}

// NewPrefetcherAt starts the background generator for a rank's shard of
// the dataset, its index stream fast-forwarded past the first skip draws.
// depth bounds how many samples may be generated ahead of the consumer
// (minimum 1; 2 gives double buffering). Stop it when done. skip is the
// resume entry point: a trainer that consumed k samples before a
// checkpoint restarts its pipeline with skip=k and sees the identical
// remaining sequence, regardless of how many samples the interrupted
// prefetcher had generated ahead of the crash.
func NewPrefetcherAt(d *Dataset, indices []int, seed int64, rank, depth int, skip uint64) *Prefetcher {
	if len(indices) == 0 {
		panic("climate: prefetcher needs a non-empty index set")
	}
	if depth < 1 {
		depth = 1
	}
	h, w := d.Cfg.Height, d.Cfg.Width
	p := &Prefetcher{
		ready: make(chan *Sample, depth),
		free:  make(chan *Sample, depth+1),
		stop:  make(chan struct{}),
	}
	for i := 0; i < depth+1; i++ {
		p.free <- &Sample{
			Fields: tensor.New(tensor.Shape{NumChannels, h, w}),
			Labels: tensor.New(tensor.Shape{h, w}),
		}
	}
	next := newIndexStreamAt(indices, seed, rank, skip)
	cfg := d.Cfg
	go func() {
		for {
			var s *Sample
			select {
			case s = <-p.free:
			case <-p.stop:
				return
			}
			GenerateInto(cfg, next(), s)
			select {
			case p.ready <- s:
			case <-p.stop:
				return
			}
		}
	}()
	return p
}

// Next blocks until the next sample in the rank's stream is ready and
// returns it. The sample is valid until it is passed back to Recycle.
// After Stop, Next returns nil.
func (p *Prefetcher) Next() *Sample {
	select {
	case s := <-p.ready:
		return s
	case <-p.stop:
		return nil
	}
}

// Recycle returns a sample obtained from Next to the generator's slot
// ring. The caller must not touch the sample afterwards.
func (p *Prefetcher) Recycle(s *Sample) {
	if s == nil {
		return
	}
	select {
	case p.free <- s:
	default: // foreign sample; drop it rather than grow the ring
	}
}

// Stop terminates the background generator. Idempotent; pending samples
// are discarded.
func (p *Prefetcher) Stop() {
	p.once.Do(func() { close(p.stop) })
}
