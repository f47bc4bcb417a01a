// Command benchreport converts `go test -bench` output into a
// machine-readable JSON benchmark table, so the performance trajectory of
// the repo can be tracked across PRs (BENCH_<n>.json files at the root).
//
// Usage:
//
//	go test -bench 'Fig2|Fig3' -benchtime 1x -run '^$' . | \
//	    go run ./cmd/benchreport -label "PR 2" -out BENCH_2.json
//
// Each benchmark line is parsed into its name, iteration count, ns/op, and
// every custom metric (`b.ReportMetric` units like steps/s, %peak, B/op).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics,omitempty"`
}

// ServingSummary surfaces the serving SLO quantities (PR 4's acceptance
// numbers) at the top of the report, extracted from the BenchmarkServing
// metrics: requests/s through the batched server, the serial single-tile
// baseline, their ratio, and the tail latency.
type ServingSummary struct {
	RequestsPerSec  float64 `json:"requests_per_sec"`
	SerialReqPerSec float64 `json:"serial_requests_per_sec,omitempty"`
	BatchSpeedup    float64 `json:"batch_speedup,omitempty"`
	P50ms           float64 `json:"p50_ms,omitempty"`
	P99ms           float64 `json:"p99_ms,omitempty"`
	MeanBatch       float64 `json:"mean_batch,omitempty"`
}

// AdaptiveSummary surfaces the adaptive-compute serving acceptance numbers
// (PR 7) from the BenchmarkAdaptiveServing metrics: adaptive and FP32
// full-decode throughput on sparse-storm traffic, their ratio (the ≥2×
// acceptance quantity), the exit path's tile resolution rate and relative
// micro-batch cost, and the reduced-precision kernels' measured relative
// logit error (the contract bounds are 2e-3 FP16, 6e-2 INT8).
type AdaptiveSummary struct {
	RequestsPerSec  float64 `json:"requests_per_sec"`
	FP32ReqPerSec   float64 `json:"fp32_requests_per_sec,omitempty"`
	Speedup         float64 `json:"adaptive_speedup,omitempty"`
	ExitRate        float64 `json:"exit_rate,omitempty"`
	ExitCostRatio   float64 `json:"exit_cost_ratio,omitempty"`
	P50ms           float64 `json:"p50_ms,omitempty"`
	P99ms           float64 `json:"p99_ms,omitempty"`
	FP16LogitRelErr float64 `json:"fp16_logit_rel_err,omitempty"`
	INT8LogitRelErr float64 `json:"int8_logit_rel_err,omitempty"`
}

// StreamingSummary surfaces the stormwatch pipeline's acceptance numbers
// from the BenchmarkStormwatch metrics: sustained frames/s under bursty
// overload, the drop and degrade rates the backpressure policy produced,
// and the p99 source→tracker frame latency.
type StreamingSummary struct {
	FramesPerSec    float64 `json:"frames_per_sec"`
	DroppedPercent  float64 `json:"dropped_percent"`
	DegradedPercent float64 `json:"degraded_percent"`
	P99FrameMs      float64 `json:"p99_frame_ms,omitempty"`
}

// FleetSummary surfaces the sharded-serving acceptance numbers (PR 10)
// from the BenchmarkFleetServing metrics: virtual-clock throughput at 4
// shards and at the 1-shard baseline, their ratio (the ≥2.5× acceptance
// quantity), this host's wall throughput, the hot-swap figures (completed
// swaps, swap-window p99, dropped requests — the guarantee is zero), and
// the chaos run's tile re-dispatch rate around a killed shard.
type FleetSummary struct {
	VirtualReqPerSec      float64 `json:"virtual_requests_per_sec"`
	OneShardVirtualReqSec float64 `json:"one_shard_virtual_requests_per_sec,omitempty"`
	ShardSpeedup          float64 `json:"shard_speedup,omitempty"`
	RequestsPerSec        float64 `json:"requests_per_sec,omitempty"`
	Swaps                 float64 `json:"swaps,omitempty"`
	SwapP99ms             float64 `json:"swap_window_p99_ms,omitempty"`
	SwapDrops             float64 `json:"swap_drops"`
	RedispatchedPercent   float64 `json:"redispatched_percent"`
}

// KernelSummary surfaces the SIMD execution layer's acceptance numbers
// (PR 9) from the BenchmarkKernel* metrics: the measured FMA peak
// (BenchmarkKernelPeak's synthetic 12-chain probe), the best delivered
// single-threaded GEMM GFLOP/s per ISA, their ratio (the ≥2× acceptance
// quantity), and the AVX2 kernels' fraction of measured peak. ISA is the
// fastest kernel set the host ran.
type KernelSummary struct {
	ISA            string  `json:"isa"`
	FMAPeakGFLOPs  float64 `json:"fma_peak_gflops,omitempty"`
	AVX2GemmGFLOPs float64 `json:"avx2_gemm_gflops,omitempty"`
	ScalarGFLOPs   float64 `json:"scalar_gemm_gflops,omitempty"`
	SIMDSpeedup    float64 `json:"simd_speedup,omitempty"`
	PctPeak        float64 `json:"pct_peak,omitempty"`
}

// Report is the emitted document.
type Report struct {
	Label      string            `json:"label,omitempty"`
	GoOS       string            `json:"goos,omitempty"`
	GoArch     string            `json:"goarch,omitempty"`
	CPU        string            `json:"cpu,omitempty"`
	Kernel     *KernelSummary    `json:"kernel,omitempty"`
	Serving    *ServingSummary   `json:"serving,omitempty"`
	Adaptive   *AdaptiveSummary  `json:"adaptive,omitempty"`
	Fleet      *FleetSummary     `json:"fleet,omitempty"`
	Streaming  *StreamingSummary `json:"streaming,omitempty"`
	Benchmarks []Benchmark       `json:"benchmarks"`
	Notes      []string          `json:"notes,omitempty"`
}

func main() {
	var ins multiFlag
	flag.Var(&ins, "in", "benchmark output file ('-' = stdin; repeatable, results are merged)")
	out := flag.String("out", "", "output JSON path (default stdout)")
	label := flag.String("label", "", "free-form label recorded in the report")
	var notes multiFlag
	flag.Var(&notes, "note", "free-form note line (repeatable)")
	flag.Parse()
	if len(ins) == 0 {
		ins = multiFlag{"-"}
	}

	report := Report{Label: *label, Notes: notes}
	for _, in := range ins {
		if err := scanInput(in, &report); err != nil {
			log.Fatal(err)
		}
	}
	report.Kernel = kernelSummary(report.Benchmarks)
	report.Serving = servingSummary(report.Benchmarks)
	report.Adaptive = adaptiveSummary(report.Benchmarks)
	report.Fleet = fleetSummary(report.Benchmarks)
	report.Streaming = streamingSummary(report.Benchmarks)

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchreport: wrote %d benchmarks to %s\n",
		len(report.Benchmarks), *out)
}

// scanInput parses one input ('-' = stdin) into the report, closing the
// file before returning.
func scanInput(in string, report *Report) error {
	var r io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if b, ok := parseLine(line); ok {
				report.Benchmarks = append(report.Benchmarks, b)
			}
		}
	}
	return sc.Err()
}

// parseLine parses one benchmark result line:
//
//	BenchmarkName/sub-8   123   45678 ns/op   9.1 steps/s   64 B/op
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{
		Name:       strings.TrimSuffix(fields[0], cpuSuffix(fields[0])),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	// Remaining fields come in (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		unit := fields[i+1]
		if unit == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[unit] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

// kernelSummary extracts the SIMD kernel acceptance quantities from the
// BenchmarkKernelPeak and BenchmarkKernelGemm result lines, if any were
// parsed (nil otherwise). Per ISA it keeps the best shape's GFLOP/s; the
// speedup is best-AVX2 over best-scalar (same shape set either way).
func kernelSummary(benches []Benchmark) *KernelSummary {
	var s KernelSummary
	var found bool
	for _, b := range benches {
		switch {
		case strings.HasPrefix(b.Name, "BenchmarkKernelPeak"):
			if v, ok := b.Metrics["GFLOP/s-peak"]; ok {
				s.FMAPeakGFLOPs = v
				found = true
			}
		case strings.HasPrefix(b.Name, "BenchmarkKernelGemm/avx2/"):
			if v := b.Metrics["GFLOP/s"]; v > s.AVX2GemmGFLOPs {
				s.AVX2GemmGFLOPs = v
				s.PctPeak = b.Metrics["%peak"]
				found = true
			}
		case strings.HasPrefix(b.Name, "BenchmarkKernelGemm/scalar/"):
			if v := b.Metrics["GFLOP/s"]; v > s.ScalarGFLOPs {
				s.ScalarGFLOPs = v
				found = true
			}
		}
	}
	if !found {
		return nil
	}
	s.ISA = "scalar"
	if s.AVX2GemmGFLOPs > 0 {
		s.ISA = "avx2"
	}
	if s.AVX2GemmGFLOPs > 0 && s.ScalarGFLOPs > 0 {
		s.SIMDSpeedup = s.AVX2GemmGFLOPs / s.ScalarGFLOPs
	}
	return &s
}

// servingSummary extracts the serving SLOs from the BenchmarkServing result
// lines, if any were parsed (nil otherwise): the batched stack's line
// carries the rates and quantiles, the serial path's sub-benchmark the
// baseline rate.
func servingSummary(benches []Benchmark) *ServingSummary {
	var s ServingSummary
	for _, b := range benches {
		if !strings.HasPrefix(b.Name, "BenchmarkServing") {
			continue
		}
		if v, ok := b.Metrics["serial-req/s"]; ok {
			s.SerialReqPerSec = v
		}
		if v, ok := b.Metrics["req/s"]; ok {
			s.RequestsPerSec = v
			s.BatchSpeedup = b.Metrics["batch-speedup"]
			s.P50ms = b.Metrics["p50-ms"]
			s.P99ms = b.Metrics["p99-ms"]
			s.MeanBatch = b.Metrics["mean-batch"]
		}
	}
	if s.RequestsPerSec == 0 {
		return nil
	}
	return &s
}

// adaptiveSummary extracts the adaptive-serving acceptance quantities from
// a BenchmarkAdaptiveServing result line, if one was parsed (nil
// otherwise).
func adaptiveSummary(benches []Benchmark) *AdaptiveSummary {
	for _, b := range benches {
		if !strings.HasPrefix(b.Name, "BenchmarkAdaptive") || b.Metrics == nil {
			continue
		}
		if _, ok := b.Metrics["req/s"]; !ok {
			continue
		}
		return &AdaptiveSummary{
			RequestsPerSec:  b.Metrics["req/s"],
			FP32ReqPerSec:   b.Metrics["fp32-req/s"],
			Speedup:         b.Metrics["adaptive-speedup"],
			ExitRate:        b.Metrics["exit-rate"],
			ExitCostRatio:   b.Metrics["exit-cost-ratio"],
			P50ms:           b.Metrics["p50-ms"],
			P99ms:           b.Metrics["p99-ms"],
			FP16LogitRelErr: b.Metrics["fp16-logit-relerr"],
			INT8LogitRelErr: b.Metrics["int8-logit-relerr"],
		}
	}
	return nil
}

// fleetSummary extracts the sharded-serving acceptance quantities from a
// BenchmarkFleetServing result line, if one was parsed (nil otherwise).
func fleetSummary(benches []Benchmark) *FleetSummary {
	for _, b := range benches {
		if !strings.HasPrefix(b.Name, "BenchmarkFleetServing") || b.Metrics == nil {
			continue
		}
		if _, ok := b.Metrics["virt-req/s"]; !ok {
			continue
		}
		return &FleetSummary{
			VirtualReqPerSec:      b.Metrics["virt-req/s"],
			OneShardVirtualReqSec: b.Metrics["virt-req/s-1shard"],
			ShardSpeedup:          b.Metrics["shard-speedup"],
			RequestsPerSec:        b.Metrics["req/s"],
			Swaps:                 b.Metrics["swaps"],
			SwapP99ms:             b.Metrics["swap-p99-ms"],
			SwapDrops:             b.Metrics["swap-drops"],
			RedispatchedPercent:   b.Metrics["%redispatched"],
		}
	}
	return nil
}

// streamingSummary extracts the stormwatch acceptance quantities from a
// BenchmarkStormwatch result line, if one was parsed (nil otherwise).
func streamingSummary(benches []Benchmark) *StreamingSummary {
	for _, b := range benches {
		if !strings.HasPrefix(b.Name, "BenchmarkStormwatch") || b.Metrics == nil {
			continue
		}
		if _, ok := b.Metrics["frames/s"]; !ok {
			continue
		}
		return &StreamingSummary{
			FramesPerSec:    b.Metrics["frames/s"],
			DroppedPercent:  b.Metrics["%dropped"],
			DegradedPercent: b.Metrics["%degraded"],
			P99FrameMs:      b.Metrics["p99-frame-ms"],
		}
	}
	return nil
}

// cpuSuffix returns the trailing "-N" GOMAXPROCS suffix of a benchmark
// name, if present, so names stay stable across machines.
func cpuSuffix(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return ""
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return ""
	}
	return name[i:]
}

// multiFlag collects repeated -note flags.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }
