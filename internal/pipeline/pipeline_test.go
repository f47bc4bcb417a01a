package pipeline

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/climate"
	"repro/internal/h5lite"
	"repro/internal/loss"
	"repro/internal/tensor"
)

func genSource(n int) generatorSource {
	return generatorSource{Dataset: climate.NewDataset(climate.DefaultGenConfig(32, 48, 3), n)}
}

func TestPipelineProducesBatches(t *testing.T) {
	src := genSource(8)
	weights := loss.ClassWeights([]float64{0.97, 0.01, 0.02}, loss.InverseSqrtFrequency)
	p, err := New(src, Config{
		BatchSize: 2, Readers: 2, PrefetchDepth: 2,
		ClassWeights: weights, Seed: 1, Epochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	batches := 0
	for {
		b := p.Next()
		if b == nil {
			break
		}
		batches++
		if !b.Images.Shape().Equal(tensor.NCHW(2, climate.NumChannels, 32, 48)) {
			t.Fatalf("image shape %v", b.Images.Shape())
		}
		if !b.Labels.Shape().Equal(tensor.Shape{2, 32, 48}) {
			t.Fatalf("labels shape %v", b.Labels.Shape())
		}
		// Weight map must correspond to labels through the class table.
		for i, l := range b.Labels.Data() {
			if b.Weights.Data()[i] != weights[int(l)] {
				t.Fatal("weight map inconsistent with labels")
			}
		}
	}
	if batches != 4 {
		t.Fatalf("1 epoch of 8 samples at batch 2 should give 4 batches, got %d", batches)
	}
	if p.Err() != nil {
		t.Fatal(p.Err())
	}
}

func TestPipelineIndexRestriction(t *testing.T) {
	src := genSource(10)
	p, err := New(src, Config{
		BatchSize: 1, Readers: 1, Epochs: 2, Seed: 2,
		Indices: []int{0, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	count := 0
	for p.Next() != nil {
		count++
	}
	if count != 4 { // 2 epochs × 2 indices
		t.Fatalf("batches = %d", count)
	}
}

func TestPipelineStopUnblocks(t *testing.T) {
	src := genSource(8)
	p, err := New(src, Config{BatchSize: 1, Readers: 2, PrefetchDepth: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Consume one batch then stop while producers are blocked on the queue.
	if p.Next() == nil {
		t.Fatal("no first batch")
	}
	done := make(chan struct{})
	go func() {
		p.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop deadlocked")
	}
}

func TestPipelineValidation(t *testing.T) {
	src := genSource(4)
	if _, err := New(src, Config{BatchSize: 0}); err == nil {
		t.Fatal("batch 0 accepted")
	}
	if _, err := New(src, Config{BatchSize: 8}); err == nil {
		t.Fatal("batch larger than dataset accepted")
	}
}

// writeClimateFile materializes n generated samples into an h5lite file.
func writeClimateFile(t *testing.T, path string, n int) {
	t.Helper()
	ds := climate.NewDataset(climate.DefaultGenConfig(16, 24, 9), n)
	lib := h5lite.NewLibrary(0)
	w, err := lib.Create(path, h5lite.Meta{Channels: climate.NumChannels, Height: 16, Width: 24})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := ds.Sample(i)
		if err := w.Append(s.Fields.Data(), s.Labels.Data()); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFileSourceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clim.h5l")
	writeClimateFile(t, path, 6)
	fs, err := NewFileSource(path, ProcessMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if fs.NumSamples() != 6 {
		t.Fatalf("samples = %d", fs.NumSamples())
	}
	c, h, w := fs.Meta()
	if c != climate.NumChannels || h != 16 || w != 24 {
		t.Fatalf("meta = %d %d %d", c, h, w)
	}
	f, l, err := fs.Load(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := climate.NewDataset(climate.DefaultGenConfig(16, 24, 9), 6).Sample(2)
	for i, v := range f.Data() {
		if want.Fields.Data()[i] != v {
			t.Fatal("fields mismatch")
		}
	}
	for i, v := range l.Data() {
		if want.Labels.Data()[i] != v {
			t.Fatal("labels mismatch")
		}
	}
}

func TestProcessModeOutpacesThreadMode(t *testing.T) {
	// The Section V-A2 result in miniature: with a 2ms decode cost under
	// the library lock, 4 reader "processes" beat 4 reader threads by
	// roughly the worker count.
	const n, decode = 16, 2 * time.Millisecond
	path := filepath.Join(t.TempDir(), "clim.h5l")
	writeClimateFile(t, path, n)

	run := func(mode ReaderMode) time.Duration {
		fs, err := NewFileSource(path, mode, decode)
		if err != nil {
			t.Fatal(err)
		}
		defer fs.Close()
		p, err := New(fs, Config{BatchSize: 2, Readers: 4, PrefetchDepth: 2, Seed: 4, Epochs: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
		start := time.Now()
		for p.Next() != nil {
		}
		return time.Since(start)
	}

	threadTime := run(ThreadMode)
	processTime := run(ProcessMode)
	t.Logf("thread mode: %v, process mode: %v (%.1fx)",
		threadTime, processTime, float64(threadTime)/float64(processTime))
	if threadTime < n*decode {
		t.Fatalf("thread mode %v should serialize all %d decodes", threadTime, n)
	}
	if processTime*2 > threadTime {
		t.Fatalf("process mode (%v) not meaningfully faster than thread mode (%v)",
			processTime, threadTime)
	}
}

func TestPrefetchHidesInputLatency(t *testing.T) {
	// With the queue warm, Next() should return quickly even though each
	// sample takes ~2ms to produce — the prefetch insulation the paper
	// describes.
	const decode = 2 * time.Millisecond
	path := filepath.Join(t.TempDir(), "clim.h5l")
	writeClimateFile(t, path, 12)
	fs, err := NewFileSource(path, ProcessMode, decode)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	p, err := New(fs, Config{BatchSize: 1, Readers: 4, PrefetchDepth: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// Let the queue fill.
	time.Sleep(12 * decode)
	start := time.Now()
	if p.Next() == nil {
		t.Fatal("no batch")
	}
	if lat := time.Since(start); lat > decode {
		t.Fatalf("Next latency %v — prefetch queue did not hide input time", lat)
	}
}

func TestReaderModeString(t *testing.T) {
	if ThreadMode.String() != "thread" || ProcessMode.String() != "process" {
		t.Fatal("mode names wrong")
	}
}
