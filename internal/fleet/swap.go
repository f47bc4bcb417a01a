package fleet

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/infer"
	"repro/internal/models"
)

// errNoFactory is returned by SwapWeights when the fleet was built without
// a Config.NewNetwork factory.
var errNoFactory = errors.New("fleet: hot swap needs Config.NewNetwork")

// generation is one installed weight version. Every Segment request pins
// the generation current at its admission and holds it live (inflight)
// until the stitched mask is delivered, which is what makes each mask pure
// — decoded entirely by one weight version — across rolling swaps.
type generation struct {
	num  uint64 // monotonic swap counter; 0 is the fleet's starting weights
	step uint64 // training step the weights came from
	net  *infer.Network
	// wire is the flattened parameter payload shipped to each shard during
	// the rolling prepare — the virtual fabric charges its transfer, so
	// swap cost scales with model size like a real weight push would.
	wire     []float32
	inflight atomic.Int64
}

// SwapWeights installs a training snapshot as the fleet's new serving
// weights with a rolling, no-drain protocol:
//
//  1. Build a fresh network instance (Config.NewNetwork) and restore the
//     snapshot's parameters into it — in-flight inference on the old
//     tensors is never touched.
//  2. Roll the weights through the shards one at a time: each shard's
//     replicas build and warm engines for the new generation while every
//     other shard keeps serving, and old-generation engines on the same
//     shard stay live (make-before-break).
//  3. Flip admissions atomically: requests admitted after the flip pin the
//     new generation; requests already in flight finish on the old one.
//  4. When the last old-generation request completes, broadcast a retire
//     and release the old engines.
//
// Admission never pauses and no accepted request is dropped or mixed
// across versions. Concurrent SwapWeights calls serialize; a swap racing
// Close may return ErrClosed after the fleet has drained.
func (f *Fleet) SwapWeights(state *models.TrainState) error {
	if f.cfg.NewNetwork == nil {
		return errNoFactory
	}
	f.swapMu.Lock()
	defer f.swapMu.Unlock()

	net, err := f.cfg.NewNetwork()
	if err != nil {
		return fmt.Errorf("fleet: building swap target: %w", err)
	}
	if err := models.RestoreParams(net.Graph, state.Params); err != nil {
		return fmt.Errorf("fleet: restoring snapshot step %d: %w", state.Step, err)
	}
	total := 0
	for _, p := range state.Params {
		total += len(p.Data)
	}
	wire := make([]float32, 0, total)
	for _, p := range state.Params {
		wire = append(wire, p.Data...)
	}

	f.genMu.Lock()
	gen := &generation{num: f.nextGen, step: state.Step, net: net, wire: wire}
	f.nextGen++
	f.gens[gen.num] = gen
	f.genMu.Unlock()

	// The swap window opens at the start of the roll and closes after the
	// flip: requests admitted inside it feed the swap-window latency
	// histogram.
	f.swapActive.Store(true)
	defer f.swapActive.Store(false)

	if err := f.ctl(ctlPrepare, gen); err != nil {
		// Roll aborted (a shard's engines failed to build, or the fleet
		// closed): retire whatever was prepared and drop the generation.
		f.dropGen(gen)
		return err
	}

	// Atomic flip: one pointer swap under genMu decides, for every future
	// admission, which weights it decodes with.
	f.genMu.Lock()
	old := f.cur
	f.cur = gen
	f.genMu.Unlock()
	f.swaps.Add(1)

	// Drain the old generation: its last in-flight request releases it.
	for old.inflight.Load() > 0 {
		select {
		case <-f.routerGone:
			// Close is draining those same requests; shutdown releases the
			// engines, so the retire ctl is moot.
			f.forgetGen(old)
			return nil
		case <-time.After(200 * time.Microsecond):
		}
	}
	f.dropGen(old)
	return nil
}

// ctl runs one swap-protocol phase through the router, surviving a
// concurrent Close.
func (f *Fleet) ctl(kind int, gen *generation) error {
	ack := make(chan error, 1)
	select {
	case f.ctlCh <- ctlMsg{kind: kind, gen: gen, ack: ack}:
	case <-f.routerGone:
		return ErrClosed
	}
	// The router never exits with a phase mid-flight (idle() covers both),
	// so the ack always comes once the message is accepted.
	return <-ack
}

// dropGen retires a generation's engines on every shard and forgets it.
func (f *Fleet) dropGen(gen *generation) {
	if err := f.ctl(ctlRetire, gen); err == nil || errors.Is(err, ErrClosed) {
		f.forgetGen(gen)
	}
}

func (f *Fleet) forgetGen(gen *generation) {
	f.genMu.Lock()
	delete(f.gens, gen.num)
	f.genMu.Unlock()
}

// Swapper watches a checkpoint directory and hot-swaps every new training
// snapshot into a fleet — the closed loop between the elastic trainer
// (which writes models.TrainState snapshots as it runs) and the serving
// fleet. Create with Fleet.WatchSnapshots.
type Swapper struct {
	f        *Fleet
	dir      string
	interval time.Duration
	onSwap   func(step uint64, err error)
	lastStep uint64
	started  bool
	stop     chan struct{}
	done     chan struct{}
}

// WatchSnapshots starts a Swapper polling dir every interval for a
// models snapshot (models.LatestSnapshot) newer than the last one swapped
// in. onSwap, when non-nil, observes every attempt — step and outcome.
// Stop the returned Swapper before closing the fleet.
func (f *Fleet) WatchSnapshots(dir string, interval time.Duration, onSwap func(step uint64, err error)) *Swapper {
	if interval <= 0 {
		interval = 50 * time.Millisecond
	}
	sw := &Swapper{
		f:        f,
		dir:      dir,
		interval: interval,
		onSwap:   onSwap,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go sw.run()
	return sw
}

func (sw *Swapper) run() {
	defer close(sw.done)
	t := time.NewTicker(sw.interval)
	defer t.Stop()
	for {
		select {
		case <-sw.stop:
			return
		case <-sw.f.routerGone:
			return
		case <-t.C:
			sw.poll()
		}
	}
}

// poll swaps in the newest snapshot if it advances the watched step.
func (sw *Swapper) poll() {
	path, step, err := models.LatestSnapshot(sw.dir)
	if err != nil || path == "" {
		return // nothing (or nothing readable) yet — keep watching
	}
	if sw.started && step <= sw.lastStep {
		return
	}
	state, err := models.LoadSnapshotFile(path)
	if err != nil {
		// Likely a snapshot caught mid-write by a non-atomic writer; the
		// next tick sees the finished file.
		return
	}
	err = sw.f.SwapWeights(state)
	if err == nil {
		sw.started = true
		sw.lastStep = step
	}
	if sw.onSwap != nil {
		sw.onSwap(step, err)
	}
}

// Stop halts the watcher and waits for any in-progress swap it started to
// finish. Safe to call multiple times.
func (sw *Swapper) Stop() {
	select {
	case <-sw.stop:
	default:
		close(sw.stop)
	}
	<-sw.done
}
