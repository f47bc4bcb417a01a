package core

import (
	"fmt"
	"sync"

	"repro/internal/hpfloat"
	"repro/internal/models"
	"repro/internal/opt"
)

// snapshotter is rank 0's asynchronous full-state checkpoint writer.
// capture runs on the training path and only deep-copies: parameters land
// in one of two recycled TrainState buffers (double buffering), the buffer
// is queued, and a background goroutine encodes it, commits it atomically
// into the checkpoint directory, and prunes retention — training continues
// while the bytes hit disk. Back-pressure instead of loss: if both buffers
// are in flight (the disk is slower than the checkpoint cadence), capture
// blocks until one frees, so every scheduled snapshot is written and the
// newest committed file is never older than one cadence.
type snapshotter struct {
	dir     string
	retain  int
	durable bool
	free    chan *models.TrainState
	work    chan *models.TrainState
	done    chan struct{}

	mu       sync.Mutex
	written  int
	lastPath string
	err      error

	stopOnce sync.Once
}

func newSnapshotter(dir string, retain int, durable bool) *snapshotter {
	if retain < 1 {
		retain = 3
	}
	s := &snapshotter{
		dir:     dir,
		retain:  retain,
		durable: durable,
		free:    make(chan *models.TrainState, 2),
		work:    make(chan *models.TrainState, 1),
		done:    make(chan struct{}),
	}
	s.free <- &models.TrainState{}
	s.free <- &models.TrainState{}
	go s.run()
	return s
}

func (s *snapshotter) run() {
	defer close(s.done)
	for st := range s.work {
		path, err := models.WriteSnapshotAtomic(s.dir, st, s.durable)
		if err == nil {
			err = models.PruneSnapshots(s.dir, s.retain)
		}
		s.mu.Lock()
		if err != nil {
			if s.err == nil {
				s.err = fmt.Errorf("core: checkpoint at step %d: %w", st.Step, err)
			}
		} else {
			s.written++
			s.lastPath = path
		}
		s.mu.Unlock()
		s.free <- st
	}
}

// capture snapshots the trainer's full state after `steps` completed steps
// and queues it for writing. Runs synchronously on rank 0's step path; its
// cost is the parameter/optimizer memcpy, not the encode or the I/O.
func (s *snapshotter) capture(steps uint64, cfg Config, net *models.Network,
	captureOpt func(prev *opt.State) *opt.State, scaler *hpfloat.LossScaler, skipped int,
	history []models.StepRecord, valHist []models.ValRecord) error {

	buf := <-s.free
	buf.Step = steps
	buf.Ranks = cfg.Ranks
	buf.Seed = cfg.Seed
	buf.Skipped = skipped
	// Cursors are stored per global-batch column (classic runs pin one
	// column per rank), which is what lets an elastic resume re-shard them
	// across any world size.
	gb := cfg.GlobalBatch
	if gb == 0 {
		gb = cfg.Ranks
	}
	buf.GlobalBatch = gb
	buf.Compact = cfg.SnapshotCompact
	if len(buf.Cursors) != gb {
		buf.Cursors = make([]uint64, gb)
	}
	for r := range buf.Cursors {
		// One sample drawn per column per step; validation passes index the
		// dataset directly and never advance the stream.
		buf.Cursors[r] = steps
	}
	buf.Opt = captureOpt(buf.Opt)
	var err error
	if buf.Params, err = models.CaptureParamsInto(net.Graph, buf.Params); err != nil {
		s.free <- buf
		return err
	}
	sc := scaler.CaptureState()
	buf.Scaler = &sc
	// The convergence curves ride along so a resumed run keeps its full
	// trajectory; records are values, so append into the recycled buffer is
	// a deep copy.
	buf.History = append(buf.History[:0], history...)
	buf.ValHistory = append(buf.ValHistory[:0], valHist...)
	s.work <- buf
	return nil
}

// stop flushes pending writes and reports the writer's tally. Idempotent;
// every later call returns the same results.
func (s *snapshotter) stop() (written int, lastPath string, err error) {
	s.stopOnce.Do(func() {
		close(s.work)
		<-s.done
	})
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written, s.lastPath, s.err
}
