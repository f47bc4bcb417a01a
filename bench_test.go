// Benchmark harness: one benchmark per table and figure in the paper's
// evaluation, plus one per Section V innovation. Each benchmark both
// exercises the reproduction code path and reports the headline quantity
// as a custom metric (PF/s, efficiency, IoU, message counts...), so
// `go test -bench . -benchmem` regenerates the full results story.
//
// Absolute timings are whatever this host provides; the paper-comparable
// numbers are the reported custom metrics. See EXPERIMENTS.md for the
// paper-vs-measured table.
package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/exaclim"
	"repro/internal/allreduce"
	"repro/internal/climate"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/easgd"
	"repro/internal/fleet"
	"repro/internal/graph"
	"repro/internal/h5lite"
	"repro/internal/horovod"
	"repro/internal/infer"
	"repro/internal/loss"
	"repro/internal/modelpar"
	"repro/internal/models"
	"repro/internal/mpi"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/pipeline"
	"repro/internal/simnet"
	"repro/internal/stagefs"
	"repro/internal/staging"
	"repro/internal/storms"
	"repro/internal/tensor"
)

// ---------- shared builders ----------

func paperAnalysis(b *testing.B, network string, p graph.Precision, batch, channels int) *graph.Analysis {
	b.Helper()
	cfg := models.Config{
		BatchSize: batch, InChannels: channels, NumClasses: 3,
		Height: 768, Width: 1152, Symbolic: true, Seed: 1,
	}
	var g *graph.Graph
	switch network {
	case "deeplab":
		net, err := models.BuildDeepLab(models.PaperDeepLab(cfg))
		if err != nil {
			b.Fatal(err)
		}
		g = net.Graph
	case "tiramisu":
		net, err := models.BuildTiramisu(models.PaperTiramisu(cfg))
		if err != nil {
			b.Fatal(err)
		}
		g = net.Graph
	case "tiramisu-orig":
		net, err := models.BuildTiramisu(models.OriginalTiramisu(cfg))
		if err != nil {
			b.Fatal(err)
		}
		g = net.Graph
	}
	return graph.Analyze(g, graph.AnalyzeOptions{
		Precision: p, IncludeOptimizer: true,
		IncludeAllreduce: true, IncludeTypeConversion: true,
	})
}

func summitScaling(b *testing.B, network string, p graph.Precision, lag int) perfmodel.ScalingConfig {
	b.Helper()
	batch := 1
	if p == graph.FP16 {
		batch = 2
	}
	grad := 44.3e6
	if network != "deeplab" {
		grad = 7.2e6
	}
	return perfmodel.ScalingConfig{
		Machine:   perfmodel.Summit(),
		Analysis:  paperAnalysis(b, network, p, batch, 16),
		Precision: p, GradBytes: grad * float64(p.Bytes()),
		NumTensors: 110, Lag: lag, HierarchicalCtl: true, Staged: true,
	}
}

func tinyTrainConfig(steps, ranks int) core.Config {
	return core.Config{
		BuildNet: func() (*models.Network, error) {
			return models.BuildTiramisu(models.TinyTiramisu(models.Config{
				BatchSize: 1, InChannels: climate.NumChannels, NumClasses: 3,
				Height: 16, Width: 16, Seed: 7,
			}))
		},
		Precision: graph.FP32,
		Optimizer: core.Adam,
		LR:        3e-3,
		Weighting: loss.InverseSqrtFrequency,
		Dataset:   climate.NewDataset(climate.DefaultGenConfig(16, 16, 42), 24),
		Ranks:     ranks,
		Steps:     steps,
		Seed:      5,
	}
}

// ---------- Fig 2: single-GPU performance table ----------

func BenchmarkFig2SingleGPU(b *testing.B) {
	type row struct {
		network  string
		gpu      perfmodel.GPU
		prec     graph.Precision
		batch    int
		channels int
	}
	rows := []row{
		{"deeplab", perfmodel.V100(), graph.FP16, 2, 16},
		{"deeplab", perfmodel.V100(), graph.FP32, 1, 16},
		{"tiramisu", perfmodel.V100(), graph.FP16, 2, 16},
		{"tiramisu", perfmodel.V100(), graph.FP32, 1, 16},
		{"tiramisu", perfmodel.P100(), graph.FP32, 1, 4},
	}
	for _, r := range rows {
		b.Run(r.network+"/"+r.gpu.Name+"/"+r.prec.String(), func(b *testing.B) {
			a := paperAnalysis(b, r.network, r.prec, r.batch, r.channels)
			var perf perfmodel.SingleGPU
			for i := 0; i < b.N; i++ {
				perf = perfmodel.SingleGPUPerf(r.network, a, r.gpu, r.prec)
			}
			b.ReportMetric(perf.TFPerSample, "TF/sample")
			b.ReportMetric(perf.SamplesPerS, "samples/s")
			b.ReportMetric(perf.PctPeak, "%peak")
		})
	}

	// Real single-"GPU" execution: one full training step (forward +
	// backward) on this host through the workspace-planned executor — the
	// measured counterpart of the analytic rows above. steps/s and allocs/op
	// are the quantities the pooled-memory refactor moves.
	b.Run("real-step/tiramisu-tiny", func(b *testing.B) {
		benchRealStep(b, func() (*models.Network, error) {
			return models.BuildTiramisu(models.TinyTiramisu(models.Config{
				BatchSize: 1, InChannels: 16, NumClasses: 3,
				Height: 32, Width: 32, Seed: 3,
			}))
		}, 32)
	})
	b.Run("real-step/deeplab-tiny", func(b *testing.B) {
		benchRealStep(b, func() (*models.Network, error) {
			return models.BuildDeepLab(models.TinyDeepLab(models.Config{
				BatchSize: 1, InChannels: 16, NumClasses: 3,
				Height: 32, Width: 32, Seed: 3,
			}))
		}, 32)
	})
}

// benchRealStep measures real forward+backward step throughput through a
// persistent pooled executor (the trainer's per-rank configuration).
func benchRealStep(b *testing.B, build func() (*models.Network, error), hw int) {
	b.Helper()
	net, err := build()
	if err != nil {
		b.Fatal(err)
	}
	ds := climate.NewDataset(climate.DefaultGenConfig(hw, hw, 9), 2)
	sample := ds.Sample(0)
	weights := loss.ClassWeights([]float64{0.97, 0.01, 0.02}, loss.InverseSqrtFrequency)
	labels := sample.Labels.Reshape(tensor.Shape{1, hw, hw})
	feeds := map[*graph.Node]*tensor.Tensor{
		net.Images:  sample.Fields.Reshape(tensor.NCHW(1, 16, hw, hw)),
		net.Labels:  labels,
		net.Weights: loss.WeightMap(labels, weights),
	}
	ex := graph.NewPooledExecutor(net.Graph, graph.FP32, 1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Reseed(int64(i))
		if err := ex.Forward(feeds); err != nil {
			b.Fatal(err)
		}
		if err := ex.Backward(net.Loss); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}

// ---------- Fig 3 / Fig 8 / Fig 9: kernel-category profiles ----------

func benchKernelTable(b *testing.B, network string) {
	for _, p := range []graph.Precision{graph.FP32, graph.FP16} {
		b.Run(p.String(), func(b *testing.B) {
			batch := 1
			if p == graph.FP16 {
				batch = 2
			}
			a := paperAnalysis(b, network, p, batch, 16)
			var rows []perfmodel.CategoryRow
			for i := 0; i < b.N; i++ {
				rows = perfmodel.KernelTable(a, perfmodel.V100(), p)
			}
			var convPct float64
			for _, r := range rows {
				if r.Category == graph.CatForwardConv || r.Category == graph.CatBackwardConv {
					convPct += r.PctTime
				}
			}
			b.ReportMetric(convPct, "%time-in-conv")
			b.ReportMetric(perfmodel.StepSeconds(a, perfmodel.V100(), p)*1e3, "step-ms")
		})
	}
}

func BenchmarkFig3KernelBreakdown(b *testing.B) {
	b.Run("tiramisu", func(b *testing.B) { benchKernelTable(b, "tiramisu") })
	b.Run("deeplab", func(b *testing.B) { benchKernelTable(b, "deeplab") })
}

func BenchmarkFig8TiramisuDetail(b *testing.B) { benchKernelTable(b, "tiramisu") }

func BenchmarkFig9DeeplabDetail(b *testing.B) { benchKernelTable(b, "deeplab") }

// ---------- Fig 4: weak scaling ----------

func BenchmarkFig4aTiramisuScaling(b *testing.B) {
	b.Run("summit-fp16-lag1-24576", func(b *testing.B) {
		s := summitScaling(b, "tiramisu", graph.FP16, 1)
		var p perfmodel.Point
		for i := 0; i < b.N; i++ {
			p = s.At(24576)
		}
		b.ReportMetric(p.PFps, "PF/s")
		b.ReportMetric(p.Efficiency*100, "%eff")
	})
	b.Run("pizdaint-fp32-5300", func(b *testing.B) {
		a := paperAnalysis(b, "tiramisu", graph.FP32, 1, 4)
		s := perfmodel.ScalingConfig{
			Machine: perfmodel.PizDaint(), Analysis: a, Precision: graph.FP32,
			GradBytes: 7.2e6 * 4, NumTensors: 110, Lag: 1,
			HierarchicalCtl: true, Staged: true,
		}
		var p perfmodel.Point
		for i := 0; i < b.N; i++ {
			p = s.At(5300)
		}
		b.ReportMetric(p.PFps, "PF/s")           // paper: 21.0
		b.ReportMetric(p.Efficiency*100, "%eff") // paper: 79.0
	})
}

func BenchmarkFig4bDeeplabScaling(b *testing.B) {
	for _, tc := range []struct {
		name string
		prec graph.Precision
		lag  int
	}{
		{"fp16-lag1", graph.FP16, 1},
		{"fp16-lag0", graph.FP16, 0},
		{"fp32-lag1", graph.FP32, 1},
	} {
		b.Run(tc.name+"-27360", func(b *testing.B) {
			s := summitScaling(b, "deeplab", tc.prec, tc.lag)
			var p perfmodel.Point
			for i := 0; i < b.N; i++ {
				p = s.At(27360)
			}
			b.ReportMetric(p.PFps, "PF/s")               // paper fp16 lag1: 999
			b.ReportMetric(p.PeakPFps/1000, "EF/s-peak") // paper: 1.13
			b.ReportMetric(p.Efficiency*100, "%eff")     // paper: 90.7
		})
	}
}

// ---------- Fig 5: input location on Piz Daint ----------

func BenchmarkFig5DataStaging(b *testing.B) {
	build := func(staged bool) perfmodel.ScalingConfig {
		a := paperAnalysis(b, "tiramisu", graph.FP32, 1, 4)
		return perfmodel.ScalingConfig{
			Machine: perfmodel.PizDaint(), Analysis: a, Precision: graph.FP32,
			GradBytes: 7.2e6 * 4, NumTensors: 110, Lag: 1,
			HierarchicalCtl: true, Staged: staged,
			FS: stagefs.PizDaintLustre(), SampleBytes: 16 * 768 * 1152 * 4,
		}
	}
	staged, global := build(true), build(false)
	var ps, pg perfmodel.Point
	for i := 0; i < b.N; i++ {
		ps = staged.At(2048)
		pg = global.At(2048)
	}
	b.ReportMetric(ps.Efficiency*100, "%eff-local")                 // paper: 83.4
	b.ReportMetric(pg.Efficiency*100, "%eff-global")                // paper: 75.8
	b.ReportMetric((1-pg.Efficiency/ps.Efficiency)*100, "%penalty") // paper: 9.5
}

// ---------- Fig 6: convergence at scale ----------

func BenchmarkFig6Convergence(b *testing.B) {
	for _, tc := range []struct {
		name string
		prec graph.Precision
		lag  int
	}{
		{"fp32-lag0", graph.FP32, 0},
		{"fp16-lag0", graph.FP16, 0},
		{"fp16-lag1", graph.FP16, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var final, first float64
			for i := 0; i < b.N; i++ {
				cfg := tinyTrainConfig(14, 4)
				cfg.Precision = tc.prec
				cfg.GradientLag = tc.lag
				if tc.lag == 1 {
					cfg.LR = 1e-3
				}
				cfg.StepComputeSeconds = 0.5
				res, err := core.Train(cfg)
				if err != nil {
					b.Fatal(err)
				}
				first, final = res.History[0].Loss, res.FinalLoss
			}
			b.ReportMetric(first, "loss-initial")
			b.ReportMetric(final, "loss-final")
		})
	}
}

// ---------- Fig 7: segmentation accuracy ----------

func BenchmarkFig7SegmentationIoU(b *testing.B) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		cfg := tinyTrainConfig(30, 2)
		cfg.ValidationSize = 3
		var err error
		res, err = core.Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IoU[climate.ClassBackground]*100, "%IoU-BG")
	b.ReportMetric(res.Accuracy*100, "%accuracy")
}

// ---------- §V-A1: staging ----------

func BenchmarkStagingThreads(b *testing.B) {
	fs := stagefs.SummitGPFS()
	var one, eight float64
	for i := 0; i < b.N; i++ {
		one = fs.NodeReadBW(1)
		eight = fs.NodeReadBW(8)
	}
	b.ReportMetric(one/1e9, "GB/s-1thread")    // paper: 1.79
	b.ReportMetric(eight/1e9, "GB/s-8threads") // paper: 11.98
}

func BenchmarkStagingScale(b *testing.B) {
	nvme := stagefs.SummitNVMe()
	m := staging.AnalyticModel{
		Cfg: staging.Config{
			DatasetSamples: 63000, SamplesPerNode: 1500,
			SampleBytes: 56 << 20, ReadThreads: 8, FS: stagefs.SummitGPFS(),
		},
		InterconnectBW: 12.5e9,
		Local:          &nvme,
	}
	var naive, disjoint float64
	for i := 0; i < b.N; i++ {
		naive = m.NaiveSeconds(1024)
		disjoint = m.DisjointSeconds(1024)
	}
	b.ReportMetric(naive/60, "min-naive-1024")       // paper: 10–20
	b.ReportMetric(disjoint/60, "min-disjoint-1024") // paper: <3
}

// BenchmarkPipelineReaders reproduces §V-A2: four reader threads sharing a
// serializing HDF5-style library versus four "process-mode" readers with
// independent instances, measured as pipeline throughput end to end.
func BenchmarkPipelineReaders(b *testing.B) {
	const n, decode = 16, 1 * time.Millisecond
	dir := b.TempDir()
	path := filepath.Join(dir, "bench.h5l")
	ds := climate.NewDataset(climate.DefaultGenConfig(16, 24, 9), n)
	lib := h5lite.NewLibrary(0)
	w, err := lib.Create(path, h5lite.Meta{Channels: climate.NumChannels, Height: 16, Width: 24})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s := ds.Sample(i)
		if err := w.Append(s.Fields.Data(), s.Labels.Data()); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}

	run := func(mode pipeline.ReaderMode) time.Duration {
		fs, err := pipeline.NewFileSource(path, mode, decode)
		if err != nil {
			b.Fatal(err)
		}
		defer fs.Close()
		p, err := pipeline.New(fs, pipeline.Config{
			BatchSize: 2, Readers: 4, PrefetchDepth: 2, Seed: 4, Epochs: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Stop()
		start := time.Now()
		for p.Next() != nil {
		}
		return time.Since(start)
	}
	var threadT, procT time.Duration
	for i := 0; i < b.N; i++ {
		threadT = run(pipeline.ThreadMode)
		procT = run(pipeline.ProcessMode)
	}
	b.ReportMetric(float64(threadT)/float64(procT), "process-speedup")
}

func BenchmarkStagingFunctional(b *testing.B) {
	// Real staging over 4 goroutine nodes: verifies the code path under
	// the benchmark harness and reports virtual makespans.
	cfg := staging.Config{
		DatasetSamples: 64, SamplesPerNode: 24, SampleBytes: 256,
		ReadThreads: 8, FS: stagefs.SummitGPFS(), Seed: 11,
	}
	fabric := simnet.NewTwoLevelFabric(4, 1,
		simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
		simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9})
	var amp float64
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(fabric)
		res, _ := staging.Run(w, cfg, staging.Naive)
		amp = res.ReadAmplification
		w = mpi.NewWorld(fabric)
		staging.Run(w, cfg, staging.Disjoint)
	}
	b.ReportMetric(amp, "naive-read-amplification")
}

// ---------- §V-A3: control plane and hybrid all-reduce ----------

func BenchmarkControlPlane(b *testing.B) {
	var flatRoot, treeRoot int
	for i := 0; i < b.N; i++ {
		flatRoot, _ = horovod.ControlLoad(27360, 27359, 110)
		treeRoot, _ = horovod.ControlLoad(27360, 4, 110)
	}
	b.ReportMetric(float64(flatRoot), "flat-msgs/step") // paper: millions
	b.ReportMetric(float64(treeRoot), "tree-msgs/step") // paper: thousands
}

func BenchmarkHybridAllreduce(b *testing.B) {
	// Functional hybrid vs flat ring on a 4-node Summit fabric, reporting
	// virtual-time speedup.
	fabric := simnet.Summit(4)
	const length = 1 << 14
	run := func(r allreduce.Reducer) float64 {
		w := mpi.NewWorld(fabric)
		return w.Run(func(c *mpi.Comm) {
			buf := make([]float32, length)
			r.Reduce(c, buf)
		})
	}
	var flat, hybrid float64
	for i := 0; i < b.N; i++ {
		flat = run(allreduce.Flat{Algorithm: mpi.Ring})
		hybrid = run(allreduce.NewHybrid(fabric))
	}
	b.ReportMetric(flat/hybrid, "hybrid-speedup")
}

// ---------- PR 3: overlapped multi-rank gradient exchange ----------

// multiRankStepConfig is the 8-rank real-step benchmark workload: real
// training steps of the tiny DeepLabv3+ (117K parameters in 104 gradient
// tensors — the highest comm-to-compute ratio of the tiny nets, the
// paper's strong-scaling regime) on a 4-node × 2-GPU fabric, with a
// representative per-step virtual GPU compute charge so the fabric-timed
// step cost has a paper-like comm share.
func multiRankStepConfig(steps, ranks int) core.Config {
	return core.Config{
		BuildNet: func() (*models.Network, error) {
			return models.BuildDeepLab(models.TinyDeepLab(models.Config{
				BatchSize: 1, InChannels: climate.NumChannels, NumClasses: 3,
				Height: 16, Width: 16, Seed: 7,
			}))
		},
		Precision: graph.FP32,
		Optimizer: core.Adam,
		LR:        3e-3,
		Weighting: loss.InverseSqrtFrequency,
		Dataset:   climate.NewDataset(climate.DefaultGenConfig(16, 16, 42), 24),
		Ranks:     ranks,
		Fabric: simnet.NewTwoLevelFabric(ranks/2, 2,
			simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
			simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9}),
		Steps:              steps,
		Seed:               5,
		StepComputeSeconds: 200e-6,
	}
}

// BenchmarkMultiRankStep measures multi-rank training steps (8 goroutine
// ranks, real payloads, real backward passes) across the exchange
// drivers: the bucket-planned serial exchange, the fully overlapped
// exchange, and the overlapped exchange on the FP16 wire.
//
// steps/s is host throughput (compute-bound on this 1-core reference
// container — the exchange is ~5% of host time). virtual-us/step is the
// fabric-timed step cost, the quantity the paper's overlap optimizations
// move: fused buckets cut latency-bound control and collective hops, and
// the overlapped driver hides the exchange behind the backward timeline.
func BenchmarkMultiRankStep(b *testing.B) {
	const steps, ranks = 12, 8
	for _, tc := range []struct {
		name string
		mode core.ExchangeMode
		wire mpi.Wire
	}{
		{"bucketed-serial", core.ExchangeSerial, mpi.WireFP32},
		{"overlapped", core.ExchangeOverlap, mpi.WireFP32},
		{"overlapped-fp16wire", core.ExchangeOverlap, mpi.WireFP16},
	} {
		b.Run(fmt.Sprintf("%s/%drank", tc.name, ranks), func(b *testing.B) {
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := multiRankStepConfig(steps, ranks)
				cfg.Exchange = tc.mode
				cfg.Wire = tc.wire
				var err error
				res, err = core.Train(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(steps*b.N)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(res.Makespan/float64(steps)*1e6, "virtual-us/step")
			b.ReportMetric(float64(steps)/res.Makespan, "virtual-steps/s")
			b.ReportMetric(res.OverlapFrac*100, "%overlap")
			b.ReportMetric(float64(res.CtlStats.Batches)/float64(steps), "buckets/step")
			b.ReportMetric(float64(res.CtlStats.WireBytes)/float64(steps)/1e3, "wire-KB/step")
		})
	}
}

// BenchmarkCheckpointOverhead measures what full-state snapshots cost the
// training hot path. The writer is asynchronous — rank 0 deep-copies the
// state at the step boundary and a background goroutine encodes, commits
// (atomic rename), and prunes. The acceptance bar is <5% of steps/s at the
// every-4-steps cadence (already far denser than production checkpointing,
// which runs on minutes); every-step is the saturation stress case, where
// on a single-core host the writer's encode CPU shares the core with
// compute and the overhead is expected to exceed the bar.
func BenchmarkCheckpointOverhead(b *testing.B) {
	const steps, ranks = 12, 4
	for _, tc := range []struct {
		name  string
		every int
	}{
		{"off", 0},
		{"every-4", 4},
		{"every-step", 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			base := b.TempDir()
			var res *core.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg := multiRankStepConfig(steps, ranks)
				if tc.every > 0 {
					// A fresh directory per run: the trainer refuses to
					// checkpoint a fresh run over another run's snapshots.
					cfg.CheckpointEvery = tc.every
					cfg.CheckpointDir = filepath.Join(base, strconv.Itoa(i))
					cfg.CheckpointRetain = 2
				}
				var err error
				res, err = core.Train(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if tc.every > 0 && res.CheckpointsWritten != steps/tc.every {
					b.Fatalf("wrote %d checkpoints, want %d", res.CheckpointsWritten, steps/tc.every)
				}
			}
			b.ReportMetric(float64(steps*b.N)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(res.CheckpointsWritten*b.N), "snapshots")
		})
	}
}

// ---------- §V-B ablations ----------

func BenchmarkWeightedLossAblation(b *testing.B) {
	for _, scheme := range []loss.Weighting{
		loss.Unweighted, loss.InverseFrequency, loss.InverseSqrtFrequency,
	} {
		b.Run(scheme.String(), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				cfg := tinyTrainConfig(12, 2)
				cfg.Weighting = scheme
				cfg.ValidationSize = 2
				var err error
				res, err = core.Train(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Accuracy*100, "%accuracy")
			b.ReportMetric(res.FinalLoss, "loss-final")
		})
	}
}

func BenchmarkLARCAblation(b *testing.B) {
	for _, larc := range []bool{false, true} {
		name := "sgd"
		if larc {
			name = "sgd+larc"
		}
		b.Run(name, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				cfg := tinyTrainConfig(12, 1)
				cfg.Optimizer = core.SGD
				cfg.LR = 0.5 // intentionally aggressive for the contrast
				cfg.UseLARC = larc
				var err error
				res, err = core.Train(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.FinalLoss, "loss-final")
		})
	}
}

func BenchmarkGradientLag(b *testing.B) {
	s0 := summitScaling(b, "deeplab", graph.FP16, 0)
	s1 := summitScaling(b, "deeplab", graph.FP16, 1)
	var p0, p1 perfmodel.Point
	for i := 0; i < b.N; i++ {
		p0 = s0.At(27360)
		p1 = s1.At(27360)
	}
	b.ReportMetric(p0.Efficiency*100, "%eff-lag0")
	b.ReportMetric(p1.Efficiency*100, "%eff-lag1")
}

func BenchmarkTiramisuGrowthAblation(b *testing.B) {
	// §V-B5: growth-32/5×5 (modified) vs growth-16/3×3 (original).
	mod := paperAnalysis(b, "tiramisu", graph.FP32, 1, 16)
	orig := paperAnalysis(b, "tiramisu-orig", graph.FP32, 1, 16)
	gpu := perfmodel.V100()
	var modPerf, origPerf perfmodel.SingleGPU
	for i := 0; i < b.N; i++ {
		modPerf = perfmodel.SingleGPUPerf("mod", mod, gpu, graph.FP32)
		origPerf = perfmodel.SingleGPUPerf("orig", orig, gpu, graph.FP32)
	}
	// The paper's point is GPU efficiency: growth 32 with 5×5 filters runs
	// at a far higher fraction of peak (wider GEMMs, fewer kernels), which
	// shows up here as delivered TF/s and %peak.
	b.ReportMetric(float64(mod.TotalKernels()), "kernels-modified")
	b.ReportMetric(float64(orig.TotalKernels()), "kernels-original")
	b.ReportMetric(modPerf.TFps, "TFps-modified")
	b.ReportMetric(origPerf.TFps, "TFps-original")
	b.ReportMetric(modPerf.PctPeak, "%peak-modified")
	b.ReportMetric(origPerf.PctPeak, "%peak-original")
}

// BenchmarkDecoderLayoutAblation reproduces §VII-A: removing the decoder's
// layout transposes was worth 10% at the largest scale.
func BenchmarkDecoderLayoutAblation(b *testing.B) {
	build := func(transposes bool) *graph.Analysis {
		cfg := models.PaperDeepLab(models.Config{
			BatchSize: 2, InChannels: 16, NumClasses: 3,
			Height: 768, Width: 1152, Symbolic: true, Seed: 1,
		})
		cfg.DecoderTransposes = transposes
		net, err := models.BuildDeepLab(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return graph.Analyze(net.Graph, graph.AnalyzeOptions{
			Precision: graph.FP16, IncludeOptimizer: true,
			IncludeAllreduce: true, IncludeTypeConversion: true,
		})
	}
	withT, without := build(true), build(false)
	gpu := perfmodel.V100()
	var speedup float64
	for i := 0; i < b.N; i++ {
		speedup = perfmodel.StepSeconds(withT, gpu, graph.FP16)/
			perfmodel.StepSeconds(without, gpu, graph.FP16) - 1
	}
	b.ReportMetric(speedup*100, "%speedup") // paper: 10
}

// ---------- raw kernel microbenchmarks ----------

func BenchmarkTiramisuForwardBackward(b *testing.B) {
	net, err := models.BuildTiramisu(models.TinyTiramisu(models.Config{
		BatchSize: 1, InChannels: 16, NumClasses: 3,
		Height: 32, Width: 32, Seed: 3,
	}))
	if err != nil {
		b.Fatal(err)
	}
	ds := climate.NewDataset(climate.DefaultGenConfig(32, 32, 9), 2)
	sample := ds.Sample(0)
	weights := loss.ClassWeights([]float64{0.97, 0.01, 0.02}, loss.InverseSqrtFrequency)
	labels := sample.Labels.Reshape(tensor.Shape{1, 32, 32})
	feeds := map[*graph.Node]*tensor.Tensor{
		net.Images:  sample.Fields.Reshape(tensor.NCHW(1, 16, 32, 32)),
		net.Labels:  labels,
		net.Weights: loss.WeightMap(labels, weights),
	}
	// Persistent pooled executor across steps — the trainer's per-rank
	// configuration after the workspace refactor.
	ex := graph.NewPooledExecutor(net.Graph, graph.FP32, 1, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex.Reseed(int64(i))
		if err := ex.Forward(feeds); err != nil {
			b.Fatal(err)
		}
		if err := ex.Backward(net.Loss); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------- §VIII future work: model parallelism ----------

// BenchmarkModelParallelStack runs a functional spatially-decomposed
// convolution stack over one simulated Summit node and reports the halo
// traffic and virtual makespan; correctness against the serial kernels is
// asserted by the modelpar tests.
func BenchmarkModelParallelStack(b *testing.B) {
	for _, ways := range []int{2, 6} {
		b.Run(fmt.Sprintf("%dway", ways), func(b *testing.B) {
			rng := rand.New(rand.NewSource(3))
			const h, w = 48, 72
			input := tensor.RandNormal(tensor.NCHW(1, 16, h, w), 0, 1, rng)
			layers := []modelpar.Layer{
				{Weights: tensor.RandNormal(tensor.Shape{32, 16, 3, 3}, 0, 0.2, rng), Spec: modelpar.ConvSpec{Dilation: 1}, ReLU: true},
				{Weights: tensor.RandNormal(tensor.Shape{32, 32, 3, 3}, 0, 0.2, rng), Spec: modelpar.ConvSpec{Dilation: 2}, ReLU: true},
				{Weights: tensor.RandNormal(tensor.Shape{3, 32, 3, 3}, 0, 0.2, rng), Spec: modelpar.ConvSpec{Dilation: 1}},
			}
			plan, err := modelpar.NewPlan(h, ways)
			if err != nil {
				b.Fatal(err)
			}
			var makespan float64
			var bytes int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One Summit-like node hosting exactly `ways` GPUs on NVLink.
				w2 := mpi.NewWorld(simnet.NewTwoLevelFabric(1, ways,
					simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
					simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9}))
				makespan = w2.Run(func(c *mpi.Comm) {
					var in *tensor.Tensor
					if c.Rank() == 0 {
						in = input
					}
					local := modelpar.Scatter(modelpar.World(c), plan, 0, in)
					out := modelpar.StackForward(modelpar.World(c), plan, local, layers)
					modelpar.Gather(modelpar.World(c), plan, 0, out)
				})
				bytes = w2.BytesSent()
			}
			b.ReportMetric(makespan*1e6, "virtual-us")
			b.ReportMetric(float64(bytes)/1e3, "fabric-KB")
			b.ReportMetric(float64(modelpar.HaloBytes(plan, ways/2, 1, w, layers))/1e3, "halo-KB/rank")
		})
	}
}

// BenchmarkModelParallelAnalytic sweeps the perfmodel's spatial
// decomposition at paper scale (768×1152 FP16 layers on Summit NVLink).
func BenchmarkModelParallelAnalytic(b *testing.B) {
	mp := perfmodel.ModelParallelConfig{
		Machine: perfmodel.Summit(),
		Height:  768, Width: 1152, Channels: 64,
		HaloRows: 2, Layers: 20, ElemBytes: 2,
	}
	var best int
	var eff6 float64
	for i := 0; i < b.N; i++ {
		best = mp.BestWays(0.02, 24)
		eff6 = mp.Efficiency(0.02, 6)
	}
	b.ReportMetric(float64(best), "best-ways")
	b.ReportMetric(eff6*100, "%eff-6way")
}

// ---------- §V-B4 extension: EASGD ----------

// BenchmarkEASGD contrasts elastic-averaging training (communication every
// τ steps) with synchronous all-reduce SGD on the same problem: similar
// final loss, a fraction of the traffic — the trade the paper's lag-1
// optimizer makes in miniature.
func BenchmarkEASGD(b *testing.B) {
	ls, _ := easgd.NewLeastSquares(64, 8, 3)
	init := make([]float32, ls.Dim())
	cfg := easgd.Config{LR: 0.02, Rho: 1.5, Period: 8, Steps: 1200, Seed: 5}
	var elastic, sync *easgd.Result
	for i := 0; i < b.N; i++ {
		var err error
		elastic, err = easgd.Run(mpi.NewWorld(simnet.Loopback(4)), cfg, ls, init)
		if err != nil {
			b.Fatal(err)
		}
		sync, err = easgd.RunSync(mpi.NewWorld(simnet.Loopback(4)), cfg, ls, init)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sync.BytesSent)/float64(elastic.BytesSent), "traffic-reduction")
	b.ReportMetric(elastic.CenterLoss, "loss-easgd")
	b.ReportMetric(sync.CenterLoss, "loss-sync")
}

// ---------- §V-A3: radix and fusion sensitivity ----------

// BenchmarkRadixSweep reproduces the paper's observation that the
// hierarchical control tree is insensitive to radix between 2 and 8: the
// per-rank message bound changes, but the functional session time barely
// moves (TensorFlow-style dynamic scheduling tolerates the latency).
func BenchmarkRadixSweep(b *testing.B) {
	for _, radix := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("r%d", radix), func(b *testing.B) {
			const ranks, tensors = 16, 12
			var makespan float64
			var stats horovod.Stats
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(simnet.Loopback(ranks))
				makespan = w.Run(func(c *mpi.Comm) {
					sess := horovod.NewSession(c, allreduce.Flat{Algorithm: mpi.Ring}, horovod.Tree(radix))
					sizes, grads, order := benchGrads(tensors, 64)
					sess.PlanBuckets(sizes)
					sess.Exchange(order, grads, 0)
					if c.Rank() == 0 {
						stats = sess.Stats()
					}
				})
			}
			root, interior := horovod.ControlLoad(27360, radix, 110)
			b.ReportMetric(makespan*1e6, "virtual-us")
			b.ReportMetric(float64(stats.CtlReceived), "root-ctl-recv")
			b.ReportMetric(float64(root), "root-msgs@27360")
			b.ReportMetric(float64(interior), "interior-msgs@27360")
		})
	}
}

// benchGrads returns n tensors of elems floats each: their sizes for
// PlanBuckets, the buffers, and a readiness order.
func benchGrads(n, elems int) ([]int, [][]float32, []horovod.TensorID) {
	sizes := make([]int, n)
	grads := make([][]float32, n)
	order := make([]horovod.TensorID, n)
	for t := range grads {
		sizes[t] = elems
		grads[t] = make([]float32, elems)
		order[t] = horovod.TensorID(t)
	}
	return sizes, grads, order
}

// BenchmarkTensorFusion measures Horovod's fusion buffer: batching ready
// tensors into fewer collectives cuts both control traffic and all-reduce
// launches (the effect gradient lag amplifies, per §V-B4). fuseN sizes the
// fusion buffer to hold N tensors.
func BenchmarkTensorFusion(b *testing.B) {
	for _, fusion := range []int{1, 8} {
		b.Run(fmt.Sprintf("fuse%d", fusion), func(b *testing.B) {
			const ranks, tensors, elems = 8, 24, 256
			var batches int
			var makespan float64
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(simnet.Loopback(ranks))
				makespan = w.Run(func(c *mpi.Comm) {
					cfg := horovod.Tree(4)
					cfg.FusionBufferBytes = fusion * elems * 4
					sess := horovod.NewSession(c, allreduce.Flat{Algorithm: mpi.Ring}, cfg)
					sizes, grads, order := benchGrads(tensors, elems)
					sess.PlanBuckets(sizes)
					sess.Exchange(order, grads, 0)
					if c.Rank() == 0 {
						batches = sess.Stats().Batches
					}
				})
			}
			b.ReportMetric(float64(batches), "allreduce-batches")
			b.ReportMetric(makespan*1e6, "virtual-us")
		})
	}
}

// ---------- §V-B3: channel ablation ----------

// BenchmarkChannelAblation contrasts 4-channel (the Piz Daint subset) and
// 16-channel training, the paper's observation that the full multivariate
// input "improved the accuracy of the models dramatically".
func BenchmarkChannelAblation(b *testing.B) {
	run := func(b *testing.B, channels []int, inCh int) *core.Result {
		b.Helper()
		cfg := tinyTrainConfig(25, 2)
		cfg.Channels = channels
		cfg.ValidationSize = 3
		cfg.BuildNet = func() (*models.Network, error) {
			return models.BuildTiramisu(models.TinyTiramisu(models.Config{
				BatchSize: 1, InChannels: inCh, NumClasses: 3,
				Height: 16, Width: 16, Seed: 7,
			}))
		}
		res, err := core.Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("4ch", func(b *testing.B) {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			res = run(b, climate.PizDaintChannels, len(climate.PizDaintChannels))
		}
		b.ReportMetric(res.MeanIoU*100, "%meanIoU")
		b.ReportMetric(res.FinalLoss, "loss-final")
	})
	b.Run("16ch", func(b *testing.B) {
		var res *core.Result
		for i := 0; i < b.N; i++ {
			res = run(b, nil, climate.NumChannels)
		}
		b.ReportMetric(res.MeanIoU*100, "%meanIoU")
		b.ReportMetric(res.FinalLoss, "loss-final")
	})
}

// ---------- PR 4: batched tiled-inference serving ----------

// servingNet is the serving benchmark model: the tiny Tiramisu topology
// with the paper's dropout rate (0.2) — the configuration the pre-batching
// Segment path actually executed at inference time, dropout and all.
func servingNet(b *testing.B) *models.Network {
	b.Helper()
	net, err := models.BuildTiramisu(models.TiramisuConfig{
		Config: models.Config{
			BatchSize: 1, InChannels: climate.NumChannels, NumClasses: 3,
			Height: 16, Width: 16, Seed: 3,
		},
		GrowthRate: 4, Kernel: 3, DownLayers: []int{2, 2},
		BottleneckLayers: 2, InitialChannels: 8, DropoutRate: 0.2,
	})
	if err != nil {
		b.Fatal(err)
	}
	return net
}

// legacySingleTileSegment replicates one pre-PR-4 Model.Segment call bit
// for bit in structure: adapter rebuilt with placeholder label/weight
// feeds, a fresh pooled executor per call, the full training graph (loss
// head, training-mode batch norm and dropout) executed per tile, kernel
// caches dropped on return.
func legacySingleTileSegment(b *testing.B, net *models.Network, fields *tensor.Tensor, tileHW, overlap int) *tensor.Tensor {
	b.Helper()
	fs := fields.Shape()
	c, h, w := fs[0], fs[1], fs[2]
	cfg := infer.Config{TileH: tileHW, TileW: tileHW, Overlap: overlap, Precision: graph.FP32}
	tiles, err := infer.Plan(h, w, cfg)
	if err != nil {
		b.Fatal(err)
	}
	lshape := tensor.Shape{1, h, w}
	mask := tensor.New(tensor.Shape{h, w})
	window := tensor.New(tensor.NCHW(1, c, tileHW, tileHW))
	ex := graph.NewPooledExecutor(net.Graph, graph.FP32, 1, nil)
	defer graph.ReleaseOpCaches(net.Graph)
	feeds := map[*graph.Node]*tensor.Tensor{
		net.Images:  window,
		net.Labels:  tensor.New(lshape),
		net.Weights: tensor.Ones(lshape),
	}
	for _, t := range tiles {
		cropWindow(fields, window, t.Y, t.X, tileHW)
		if err := ex.Forward(feeds); err != nil {
			b.Fatal(err)
		}
		pred := loss.Predictions(ex.Value(net.Logits))
		pd, md := pred.Data(), mask.Data()
		for y := t.KeepY0; y < t.KeepY1; y++ {
			for x := t.KeepX0; x < t.KeepX1; x++ {
				md[(t.Y+y)*w+t.X+x] = pd[y*tileHW+x]
			}
		}
	}
	return mask
}

func cropWindow(src, dst *tensor.Tensor, y, x, t int) {
	ss := src.Shape()
	c, h, w := ss[0], ss[1], ss[2]
	sd, dd := src.Data(), dst.Data()
	for ch := 0; ch < c; ch++ {
		for r := 0; r < t; r++ {
			copy(dd[ch*t*t+r*t:ch*t*t+r*t+t], sd[ch*h*w+(y+r)*w+x:ch*h*w+(y+r)*w+x+t])
		}
	}
}

// BenchmarkServing is the serving acceptance benchmark: a stream of
// window-sized (single-tile) segmentation requests served two ways —
// serially through the pre-refactor Segment path (per-call adapter,
// executor, loss head, training-mode normalization), and through the
// batched serving stack (16 concurrent clients, cross-request
// micro-batching at the max batch). It reports both throughputs, the
// speedup (the ≥1.5× acceptance quantity), and the server's latency
// quantiles. Masks are bit-identical across the engines for dropout-free
// configurations (asserted by the infer and exaclim test suites); this
// configuration carries the paper's dropout, which the legacy path really
// executed per tile.
func BenchmarkServing(b *testing.B) {
	const tileHW, overlap, nReq, clients, maxBatch = 16, 2, 96, 16, 8
	net := servingNet(b)
	ds := climate.NewDataset(climate.DefaultGenConfig(tileHW, tileHW, 7), 8)
	fields := make([]*tensor.Tensor, 8)
	for i := range fields {
		fields[i] = ds.Sample(i).Fields
	}

	// The legacy serial single-tile Segment path and the batched serving
	// stack are sub-benchmarks of their own, so that each one's ns/op and
	// allocs/op describe one path.
	var legacyRPS float64
	b.Run("serial", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			start := time.Now()
			for i := 0; i < nReq; i++ {
				legacySingleTileSegment(b, net, fields[i%len(fields)], tileHW, overlap)
			}
			legacyRPS = float64(nReq) / time.Since(start).Seconds()
		}
		b.ReportMetric(legacyRPS, "serial-req/s")
	})
	b.Run("batched", func(b *testing.B) {
		var serveRPS, p50ms, p99ms, meanBatch float64
		for it := 0; it < b.N; it++ {
			model, err := exaclim.BuildModel("tiramisu", exaclim.Tiny, exaclim.ModelConfig{
				Height: tileHW, Width: tileHW, Seed: 3,
			})
			if err != nil {
				b.Fatal(err)
			}
			copyWeights(b, net, model)
			srv, err := exaclim.NewServer(model,
				exaclim.WithReplicas(1),
				exaclim.WithMaxBatch(maxBatch),
				exaclim.WithQueueDepth(256),
				exaclim.WithBatchDeadline(200*time.Microsecond),
				exaclim.WithServeSegmentConfig(exaclim.SegmentConfig{Overlap: overlap}),
			)
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			jobs := make(chan int)
			start := time.Now()
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range jobs {
						if _, _, err := srv.Segment(context.Background(), fields[i%len(fields)]); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			for i := 0; i < nReq; i++ {
				jobs <- i
			}
			close(jobs)
			wg.Wait()
			serveRPS = float64(nReq) / time.Since(start).Seconds()
			st := srv.Stats()
			p50ms = st.LatencyP50.Seconds() * 1e3
			p99ms = st.LatencyP99.Seconds() * 1e3
			meanBatch = st.MeanBatch
			srv.Close()
		}
		b.ReportMetric(serveRPS, "req/s")
		if legacyRPS > 0 { // the serial sub-benchmark ran too
			b.ReportMetric(serveRPS/legacyRPS, "batch-speedup")
		}
		b.ReportMetric(p50ms, "p50-ms")
		b.ReportMetric(p99ms, "p99-ms")
		b.ReportMetric(meanBatch, "mean-batch")
	})
}

// copyWeights copies src's parameter tensors into the registry-built model
// (same topology, different dropout seeds — weights are what matter).
func copyWeights(b *testing.B, src *models.Network, dst *exaclim.Model) {
	b.Helper()
	params, err := models.CaptureParamsInto(src.Graph, nil)
	if err != nil {
		b.Fatal(err)
	}
	ckpt := filepath.Join(b.TempDir(), "serving.ckpt")
	if err := models.SaveSnapshotFile(ckpt, &models.TrainState{Params: params}); err != nil {
		b.Fatal(err)
	}
	if err := dst.LoadCheckpoint(ckpt); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAdaptiveServing is the adaptive-compute acceptance benchmark:
// sparse-storm full-snapshot traffic (the paper's realistic serving regime
// — most tiles pure background) served twice by the same stack over a
// briefly trained model: FP32 full decodes, then the calibrated early-exit
// path. It reports both throughputs, the speedup (the ≥2× acceptance
// quantity), the exit rate, the exit-check/decode cost ratio, and the
// measured relative logit error of the reduced-precision kernel sets.
// Masks are asserted bit-identical between the two servings — the
// calibration set is the served traffic, where bit-parity holds by
// construction.
func BenchmarkAdaptiveServing(b *testing.B) {
	const fhw, nSnap, nReq, clients, maxBatch = 96, 6, 32, 16, 8
	// ~60 training steps is enough for mostly-background decodes on
	// sparse traffic; an untrained net labels everything storm and the
	// exit path has nothing to do.
	exp, err := exaclim.New(append(exaclim.Quickstart(),
		exaclim.WithSyntheticData(16, 16, 32, 42),
		exaclim.WithSeed(2),
		exaclim.WithSteps(60))...)
	if err != nil {
		b.Fatal(err)
	}
	res, err := exp.Run(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	model := res.Model

	gen := climate.DefaultGenConfig(fhw, fhw, 7)
	gen.MinTCs, gen.MaxTCs = 0, 1 // sparse: at most one storm system each
	gen.MinARs, gen.MaxARs = 0, 1
	ds := climate.NewDataset(gen, nSnap)
	fields := make([]*tensor.Tensor, nSnap)
	for i := range fields {
		fields[i] = ds.Sample(i).Fields
	}
	segCfg := exaclim.SegmentConfig{Overlap: 2}
	cal, err := model.CalibrateExit(fields, segCfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	if cal.ExitRate == 0 {
		b.Fatal("calibration predicts no exits; the adaptive path is idle")
	}
	fp16Err, int8Err := quantRelErr(b, fields[0])

	serve := func(opts ...exaclim.ServerOption) (float64, exaclim.ServerStats, [][]float32) {
		srv, err := exaclim.NewServer(model, append([]exaclim.ServerOption{
			exaclim.WithReplicas(1),
			exaclim.WithMaxBatch(maxBatch),
			exaclim.WithQueueDepth(256),
			exaclim.WithBatchDeadline(200 * time.Microsecond),
			exaclim.WithServeSegmentConfig(segCfg),
		}, opts...)...)
		if err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		masks := make([][]float32, nSnap)
		var wg sync.WaitGroup
		jobs := make(chan int)
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					mask, _, err := srv.Segment(context.Background(), fields[i%nSnap])
					if err != nil {
						b.Error(err)
						return
					}
					if i < nSnap {
						masks[i] = mask.Data()
					}
				}
			}()
		}
		for i := 0; i < nReq; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
		return float64(nReq) / time.Since(start).Seconds(), srv.Stats(), masks
	}

	var baseRPS, adptRPS, exitRate, costRatio, p50ms, p99ms float64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		runtime.GC()
		var baseMasks, adptMasks [][]float32
		var ast exaclim.ServerStats
		baseRPS, _, baseMasks = serve()
		runtime.GC()
		adptRPS, ast, adptMasks = serve(exaclim.WithCalibratedExit(cal))
		for i := range baseMasks {
			for p, v := range baseMasks[i] {
				if adptMasks[i][p] != v {
					b.Fatalf("snapshot %d: adaptive mask diverges from FP32 full decode at pixel %d", i, p)
				}
			}
		}
		exitRate = ast.ExitRate
		costRatio = ast.ExitCheckP50.Seconds() / ast.DecodeP50.Seconds()
		p50ms = ast.LatencyP50.Seconds() * 1e3
		p99ms = ast.LatencyP99.Seconds() * 1e3
	}
	b.ReportMetric(adptRPS, "req/s")
	b.ReportMetric(baseRPS, "fp32-req/s")
	b.ReportMetric(adptRPS/baseRPS, "adaptive-speedup")
	b.ReportMetric(exitRate, "exit-rate")
	b.ReportMetric(costRatio, "exit-cost-ratio")
	b.ReportMetric(p50ms, "p50-ms")
	b.ReportMetric(p99ms, "p99-ms")
	b.ReportMetric(fp16Err, "fp16-logit-relerr")
	b.ReportMetric(int8Err, "int8-logit-relerr")
}

// quantRelErr measures the FP16 and INT8 kernel sets' worst relative logit
// error (max |logit − logit_fp32| / max |logit_fp32|) over a few tiles of a
// real sparse snapshot, on an untrained tiny Tiramisu — the measured side
// of the precision contract whose asserted bounds are 2e-3 (FP16) and 6e-2
// (INT8).
func quantRelErr(b *testing.B, fields *tensor.Tensor) (fp16, int8 float64) {
	b.Helper()
	const tile = 16
	net, err := models.BuildTiramisu(models.TinyTiramisu(models.Config{
		BatchSize: 1, InChannels: climate.NumChannels, NumClasses: climate.NumClasses,
		Height: tile, Width: tile, Seed: 3,
	}))
	if err != nil {
		b.Fatal(err)
	}
	logits := func(prec graph.Precision, window *tensor.Tensor) []float32 {
		g, m, err := graph.CloneForInference(net.Graph, net.Logits, 1, nn.InferenceFusions)
		if err != nil {
			b.Fatal(err)
		}
		if prec == graph.INT8 {
			if err := nn.MarkInt8(g); err != nil {
				b.Fatal(err)
			}
		}
		ex := graph.NewPooledExecutor(g, prec, 1, nil)
		defer graph.ReleaseOpCaches(g)
		if err := ex.Forward(map[*graph.Node]*tensor.Tensor{m[net.Images]: window}); err != nil {
			b.Fatal(err)
		}
		return append([]float32(nil), ex.Value(m[net.Logits]).Data()...)
	}
	window := tensor.New(tensor.NCHW(1, climate.NumChannels, tile, tile))
	for _, pos := range [][2]int{{0, 0}, {40, 40}, {80, 80}} {
		cropWindow(fields, window, pos[0], pos[1], tile)
		ref := logits(graph.FP32, window)
		var scale float64
		for _, v := range ref {
			scale = math.Max(scale, math.Abs(float64(v)))
		}
		for _, prec := range []graph.Precision{graph.FP16, graph.INT8} {
			var worst float64
			for i, v := range logits(prec, window) {
				worst = math.Max(worst, math.Abs(float64(v-ref[i])))
			}
			if prec == graph.FP16 {
				fp16 = math.Max(fp16, worst/scale)
			} else {
				int8 = math.Max(int8, worst/scale)
			}
		}
	}
	return fp16, int8
}

// ---------- PR 10: sharded serving fleet with live hot-swap ----------

// BenchmarkFleetServing is the fleet acceptance benchmark: full-snapshot
// segmentation requests scattered over simulated shard nodes, measured on
// the serving fabric's virtual clocks so shard-count scaling is
// host-independent. Four phases per iteration: a 1-shard fleet (the
// scaling baseline), a 4-shard fleet under the same load (virtual req/s
// ratio is the ≥2.5× acceptance quantity), a rolling weight hot-swap under
// continued load on the 4-shard fleet (swap-window tail latency and the
// zero-drop guarantee), and a chaos run where one shard is killed mid-load
// (re-dispatch rate around the dead shard).
func BenchmarkFleetServing(b *testing.B) {
	const (
		tileHW, overlap = 16, 2
		fieldHW         = 64
		nReq, clients   = 32, 8
		maxBatch        = 4
		shards          = 4
	)
	net := servingNet(b)
	ds := climate.NewDataset(climate.DefaultGenConfig(fieldHW, fieldHW, 7), 8)
	fields := make([]*tensor.Tensor, 8)
	for i := range fields {
		fields[i] = ds.Sample(i).Fields
	}
	model, err := exaclim.BuildModel("tiramisu", exaclim.Tiny, exaclim.ModelConfig{
		Height: tileHW, Width: tileHW, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	copyWeights(b, net, model)

	// The hot-swap payload: the same weights re-captured as a committed
	// step-1 training snapshot, so the swap drives the full rolling
	// protocol without perturbing the masks.
	params, err := models.CaptureParamsInto(net.Graph, nil)
	if err != nil {
		b.Fatal(err)
	}
	swapDir := b.TempDir()
	state := &models.TrainState{Step: 1, Ranks: 1, GlobalBatch: 1, Params: params}
	if _, err := models.WriteSnapshotAtomic(swapDir, state, false); err != nil {
		b.Fatal(err)
	}

	segCfg := exaclim.SegmentConfig{Overlap: overlap}
	drive := func(n int, seg func(context.Context, *tensor.Tensor) (*tensor.Tensor, exaclim.FleetStat, error)) {
		var wg sync.WaitGroup
		jobs := make(chan int)
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					if _, _, err := seg(context.Background(), fields[i%len(fields)]); err != nil {
						b.Error(err)
						return
					}
				}
			}()
		}
		for i := 0; i < n; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}

	tileCfg := infer.Config{TileH: tileHW, TileW: tileHW, Overlap: overlap, Precision: graph.FP32}
	var virt1, virt4, wallRPS, swapP99ms, swapDrops, swaps, redispatchPct float64
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		// Phase 1: the 1-shard fleet is the scaling baseline. It
		// calibrates the per-tile virtual charge; the other topologies pin
		// the same charge so every shard count prices compute identically
		// and the ratio measures the fabric model, not wall-clock noise.
		runtime.GC()
		// The deep admission window (16 batches a shard) keeps every
		// shard's virtual timeline supplied: with a shallow window, each
		// refill round couples all shards to the globally latest result
		// the router has seen, and the makespan accumulates the per-round
		// jitter instead of the per-shard compute.
		f1, err := fleet.New(infer.FromModel(net), fleet.Config{
			Shards: 1, MaxBatch: maxBatch, AdmitPerShard: 16 * maxBatch, Tile: tileCfg,
		})
		if err != nil {
			b.Fatal(err)
		}
		drive(nReq, f1.Segment)
		virt1 = f1.Stats().VirtualReqPerSec
		tileCost := f1.TileCost()
		f1.Close()

		// Phase 2: the same load over 4 shards; virtual req/s is the
		// scaling figure, wall req/s is this host's throughput.
		runtime.GC()
		f4, err := fleet.New(infer.FromModel(net), fleet.Config{
			Shards: shards, MaxBatch: maxBatch, AdmitPerShard: 16 * maxBatch,
			Tile: tileCfg, TileCost: tileCost,
		})
		if err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		drive(nReq, f4.Segment)
		wallRPS = float64(nReq) / time.Since(start).Seconds()
		virt4 = f4.Stats().VirtualReqPerSec
		f4.Close()

		// Phase 3: a rolling hot-swap rides the same load through the
		// public fleet API. The acceptance guarantee is zero dropped
		// requests.
		runtime.GC()
		fs, err := exaclim.NewFleet(model,
			exaclim.WithShards(shards),
			exaclim.WithFleetMaxBatch(maxBatch),
			exaclim.WithFleetSegmentConfig(segCfg),
		)
		if err != nil {
			b.Fatal(err)
		}
		var swapErr error
		var sw sync.WaitGroup
		sw.Add(1)
		go func() {
			defer sw.Done()
			swapErr = fs.SwapCheckpoint(swapDir)
		}()
		drive(nReq, fs.Segment)
		sw.Wait()
		if swapErr != nil {
			b.Fatal(swapErr)
		}
		st := fs.Stats()
		swapP99ms = st.SwapWindowP99.Seconds() * 1e3
		swapDrops = float64(st.Failed)
		swaps = float64(st.Swaps)
		fs.Close()

		// Phase 4: chaos — shard 1 dies once it sees traffic from the
		// third admitted request; survivors re-decode its lost tiles.
		runtime.GC()
		ff := simnet.NewFaultFabric(simnet.ServingCluster(shards))
		ff.FailNode(2, 3)
		fc, err := fleet.New(infer.FromModel(net), fleet.Config{
			Shards: shards, MaxBatch: maxBatch, AdmitPerShard: 16 * maxBatch,
			Tile: tileCfg, TileCost: tileCost, Fabric: ff,
		})
		if err != nil {
			b.Fatal(err)
		}
		drive(nReq, fc.Segment)
		cs := fc.Stats()
		if cs.Tiles > 0 {
			redispatchPct = 100 * float64(cs.Redispatched) / float64(cs.Tiles)
		}
		fc.Close()
	}
	b.ReportMetric(virt4, "virt-req/s")
	b.ReportMetric(virt1, "virt-req/s-1shard")
	b.ReportMetric(virt4/virt1, "shard-speedup")
	b.ReportMetric(wallRPS, "req/s")
	b.ReportMetric(swaps, "swaps")
	b.ReportMetric(swapP99ms, "swap-p99-ms")
	b.ReportMetric(swapDrops, "swap-drops")
	b.ReportMetric(redispatchPct, "%redispatched")
}

// ---------- tiled inference ----------

// BenchmarkTiledInference measures full-snapshot segmentation throughput
// through the tiling path (the deployment configuration of the science use
// case).
func BenchmarkTiledInference(b *testing.B) {
	const th, tw, fh, fw = 16, 16, 48, 64
	net, err := models.BuildTiramisu(models.TinyTiramisu(models.Config{
		BatchSize: 1, InChannels: climate.NumChannels, NumClasses: 3,
		Height: th, Width: tw, Seed: 3,
	}))
	if err != nil {
		b.Fatal(err)
	}
	inet := infer.FromModel(net)
	ds := climate.NewDataset(climate.DefaultGenConfig(fh, fw, 7), 1)
	fields := ds.Sample(0).Fields
	cfg := infer.Config{TileH: th, TileW: tw, Overlap: 2, Precision: graph.FP32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := infer.Run(inet, fields, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fh*fw)*float64(b.N)/b.Elapsed().Seconds(), "pixels/s")
}

// ---------- strong scaling (Section III's "analogous form") ----------

// BenchmarkStrongScaling holds the global batch fixed while growing the GPU
// count — the regime the paper says matters when large-batch
// hyperparameters cannot be found.
func BenchmarkStrongScaling(b *testing.B) {
	s := summitScaling(b, "deeplab", graph.FP16, 1)
	const globalBatch = 1536
	var e768, e6144 float64
	for i := 0; i < b.N; i++ {
		p768 := s.StrongScalingAt(768, globalBatch)
		p6144 := s.StrongScalingAt(6144, globalBatch)
		e768, e6144 = p768.Efficiency, p6144.Efficiency
	}
	b.ReportMetric(e768*100, "%eff-768gpu")
	b.ReportMetric(e6144*100, "%eff-6144gpu")
}

// ---------- §VIII-B future work: input compression ----------

// BenchmarkCompression measures the 16-bit+DEFLATE climate compressor: the
// achieved ratio on synthetic CAM5 fields, this host's decode throughput,
// and whether the Section VIII-B trade (CPU cycles for file-system
// bandwidth) wins at the paper's staging rates.
func BenchmarkCompression(b *testing.B) {
	ds := climate.NewDataset(climate.DefaultGenConfig(96, 144, 7), 1)
	fields := ds.Sample(0).Fields
	var ratio float64
	var decoded int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, ratio, err = compress.Roundtrip(fields)
		if err != nil {
			b.Fatal(err)
		}
		decoded += int64(fields.NumElements() * 4)
	}
	b.SetBytes(int64(fields.NumElements() * 4))
	b.ReportMetric(ratio, "ratio")
	b.ReportMetric(float64(decoded)/b.Elapsed().Seconds()/1e6, "host-MB/s")
	// Sizing per Section VIII-B: a Summit node decompressing at ~8 GB/s
	// (dozens of cores) against the paper's 1.79 GB/s single-thread GPFS
	// rate. Per-node share of the 3.5 TB dataset across 4608 nodes.
	tr := compress.Tradeoff{FSBandwidth: 1.79e9, CPURate: 8e9, Ratio: ratio}
	perNode := 3.5e12 / 4608
	b.ReportMetric(tr.RawSeconds(perNode)/tr.CompressedSeconds(perNode), "staging-speedup")
	b.ReportMetric(tr.BreakEvenCPURate()/1e9, "breakeven-GB/s")
}

// ---------- Section VI: per-epoch validation trajectory ----------

// BenchmarkValidationTrajectory runs training with the paper's per-epoch
// validation pass enabled and reports the IoU trajectory endpoints —
// the accuracy-vs-time story behind Fig 6's convergence claims.
func BenchmarkValidationTrajectory(b *testing.B) {
	var res *core.Result
	for i := 0; i < b.N; i++ {
		cfg := tinyTrainConfig(24, 2)
		cfg.ValidationSize = 2
		cfg.ValidateEvery = 8
		var err error
		res, err = core.Train(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.ValHistory) > 0 {
		first, last := res.ValHistory[0], res.ValHistory[len(res.ValHistory)-1]
		b.ReportMetric(first.MeanIoU*100, "%meanIoU-epoch1")
		b.ReportMetric(last.MeanIoU*100, "%meanIoU-final")
	}
}

// BenchmarkHybridParallel runs the composed data×spatial step of Section
// VIII on a 2-node Summit-like fabric (2 data replicas × 2 spatial slabs):
// halo exchange on NVLink, weight-gradient averaging over InfiniBand.
func BenchmarkHybridParallel(b *testing.B) {
	const h, w, cin, cout = 24, 32, 8, 8
	rng := rand.New(rand.NewSource(5))
	weights := tensor.RandNormal(tensor.Shape{cout, cin, 3, 3}, 0, 0.3, rng)
	sample := tensor.RandNormal(tensor.NCHW(1, cin, h, w), 0, 1, rng)
	gradOut := tensor.RandNormal(tensor.NCHW(1, cout, h, w), 0, 1, rng)
	hp, err := modelpar.NewHybridPlan(h, 2, 2)
	if err != nil {
		b.Fatal(err)
	}
	fabric := simnet.NewTwoLevelFabric(2, 2,
		simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 150e9},
		simnet.LinkSpec{LatencySec: 1.5e-6, BytesPerSec: 12.5e9})
	var makespan float64
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		world := mpi.NewWorld(fabric)
		makespan = world.Run(func(c *mpi.Comm) {
			sc := hp.SpatialComm(c)
			var in, g *tensor.Tensor
			if sc.Rank() == 0 {
				in, g = sample, gradOut
			}
			localX := modelpar.Scatter(sc, hp.Spatial, 0, in)
			localG := modelpar.Scatter(sc, hp.Spatial, 0, g)
			hp.ConvForward(c, modelpar.ConvSpec{Dilation: 1}, localX, weights)
			hp.ConvBackward(c, modelpar.ConvSpec{Dilation: 1}, localX, weights, localG)
		})
		bytes = world.BytesSent()
	}
	b.ReportMetric(makespan*1e6, "virtual-us")
	b.ReportMetric(float64(bytes)/1e3, "fabric-KB")
}

// ---------- intro motivation: storm tracks over time ----------

// BenchmarkStormTracking runs the temporal pipeline the paper's
// introduction motivates ("understanding if AR tracks will shift"):
// generate a coherent sequence, extract storms per frame from the label
// masks, link them into tracks, and report trajectory statistics.
func BenchmarkStormTracking(b *testing.B) {
	const frames, h, w = 8, 64, 96
	seq, err := climate.NewSequence(climate.DefaultGenConfig(h, w, 17), frames)
	if err != nil {
		b.Fatal(err)
	}
	perFrame := make([][]*storms.Storm, frames)
	for f := 0; f < frames; f++ {
		s, err := seq.Frame(f)
		if err != nil {
			b.Fatal(err)
		}
		tcs, ars := storms.ExtractAll(s, 4)
		perFrame[f] = append(tcs, ars...)
	}
	var tracks []*storms.Track
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tracks = storms.LinkTracks(perFrame, w, h/5)
	}
	longest := 0
	if len(tracks) > 0 {
		longest = tracks[0].Duration()
	}
	b.ReportMetric(float64(len(tracks)), "tracks")
	b.ReportMetric(float64(longest), "longest-track-frames")
}

// BenchmarkStormwatch measures the streaming analytics pipeline end to
// end: a diurnal-bursty synthetic source pushed past serving capacity
// through a degrade-under-pressure frame queue, tiled inference on the
// server, and the online tracker. The reported quantities are the
// streaming acceptance numbers: sustained frames/s, the drop and degrade
// rates the backpressure policy produced, and the p99 source→tracker
// frame latency.
func BenchmarkStormwatch(b *testing.B) {
	const h, w, tile, frames = 32, 48, 16, 24
	model, err := exaclim.BuildModel("tiramisu", exaclim.Tiny, exaclim.ModelConfig{
		Height: tile, Width: tile, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	var st exaclim.StreamStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := exaclim.SyntheticSequence(h, w, frames, 11)
		if err != nil {
			b.Fatal(err)
		}
		watcher, err := exaclim.NewStormWatcher(model, exaclim.StreamConfig{
			Source:      src,
			FPS:         400, // far past 1-core serving capacity: backpressure engages
			MaxFrames:   frames,
			Profile:     exaclim.StreamDiurnal,
			BurstFactor: 4,
			BurstPeriod: time.Second,
			Policy:      exaclim.StreamDegrade,
			QueueDepth:  2,
		},
			exaclim.WithReplicas(1),
			exaclim.WithMaxBatch(8),
			exaclim.WithServeSegmentConfig(exaclim.SegmentConfig{Overlap: 2}),
		)
		if err != nil {
			b.Fatal(err)
		}
		res, err := watcher.Run(context.Background())
		watcher.Close()
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Produced != res.Stats.Processed+res.Stats.Dropped {
			b.Fatalf("frame accounting leak: produced %d != processed %d + dropped %d",
				res.Stats.Produced, res.Stats.Processed, res.Stats.Dropped)
		}
		st = res.Stats
	}
	b.ReportMetric(st.EffectiveFPS, "frames/s")
	b.ReportMetric(float64(st.Dropped)/float64(st.Produced)*100, "%dropped")
	b.ReportMetric(float64(st.Degraded)/float64(st.Processed)*100, "%degraded")
	b.ReportMetric(st.LatencyP99.Seconds()*1e3, "p99-frame-ms")
}

// ---------- PR 9: SIMD kernel layer ----------

// BenchmarkKernelPeak times the synthetic FMA peak probe — 12 independent
// 8-lane FMA chains, 192 FLOPs per iteration, the register-parallelism
// upper bound of one core. The %peak figures of BenchmarkKernelGemm are
// anchored against this measured peak, not the nominal frequency×width
// product.
func BenchmarkKernelPeak(b *testing.B) {
	if !tensor.FMAPeakProbe(1) {
		b.Skip("host lacks AVX2+FMA")
	}
	const itersPerOp, flopsPerIter = 4096, 192
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.FMAPeakProbe(itersPerOp)
	}
	b.ReportMetric(float64(b.N)*itersPerOp*flopsPerIter/b.Elapsed().Seconds()/1e9, "GFLOP/s-peak")
}

// BenchmarkKernelGemm measures delivered single-threaded GEMM GFLOP/s per
// kernel ISA on the two workloads that dominate training time: the
// conv-shaped GEMM (im2col panels: short m, wide n, deep k) and a square
// compute-bound product. The avx2/scalar ratio is the PR 9 acceptance
// quantity (≥2×); %peak relates the AVX2 kernels to the measured FMA peak
// from BenchmarkKernelPeak.
func BenchmarkKernelGemm(b *testing.B) {
	var peak float64
	if tensor.FMAPeakProbe(1) {
		const iters, flopsPerIter = 1 << 20, 192
		tensor.FMAPeakProbe(iters) // warm up (frequency ramp)
		// Best-of-8: on shared hosts a single timing undershoots the
		// sustained peak and produces >100% ratios downstream.
		for trial := 0; trial < 8; trial++ {
			start := time.Now()
			tensor.FMAPeakProbe(iters)
			g := float64(iters) * flopsPerIter / time.Since(start).Seconds() / 1e9
			peak = math.Max(peak, g)
		}
	}
	prevWorkers := tensor.SetParallelism(1)
	defer tensor.SetParallelism(prevWorkers)
	origISA := tensor.ActiveISA()
	defer tensor.SetKernelISA(origISA)

	for _, isa := range []tensor.KernelISA{tensor.ISAScalar, tensor.ISAAVX2} {
		if _, err := tensor.SetKernelISA(isa); err != nil {
			continue // avx2 unavailable on this host
		}
		for _, tc := range []struct {
			name    string
			m, n, k int
		}{
			{"conv-like-m32n1024k288", 32, 1024, 288},
			{"square-m256n512k512", 256, 512, 512},
		} {
			b.Run(isa.String()+"/"+tc.name, func(b *testing.B) {
				a := make([]float32, tc.m*tc.k)
				bb := make([]float32, tc.k*tc.n)
				c := make([]float32, tc.m*tc.n)
				for i := range a {
					a[i] = float32(i%7) - 3
				}
				for i := range bb {
					bb[i] = float32(i%5) - 2
				}
				flops := float64(2 * tc.m * tc.n * tc.k)
				b.SetBytes(int64(2 * tc.m * tc.n * tc.k))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.Gemm(false, false, tc.m, tc.n, tc.k, 1, a, tc.k, bb, tc.n, 0, c, tc.n)
				}
				gflops := flops * float64(b.N) / b.Elapsed().Seconds() / 1e9
				b.ReportMetric(gflops, "GFLOP/s")
				if peak > 0 {
					b.ReportMetric(gflops/peak*100, "%peak")
				}
			})
		}
	}
}
