package main

import "fmt"

// metricDef names one metric and its unit, in the spelling BENCHMARK.json
// declares (bench_test.go holds the two lists equal).
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees; every workload reports every
// one of them, from the untraced run. An "op" is one global training step
// (train_*), one request (serve_*, fleet_swap) or one frame (stream_watch);
// a "tile" is one network-input window (a sample in training).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"tiles_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"mem_ready_mb", "MB"},
}

// perLayer is the traced table: one prefix per module. A workload that
// does not reach a layer reports 0 for it, which is itself the design check
// (horovod.* is 0 on train_1rank, serve.exit_rate is ~0 off the sparse
// workload).
var perLayer = []metricDef{
	{"climate.generate_ms", "ms"},
	{"climate.data_wait_ms", "ms"},
	{"climate.sequence_frame_ms", "ms"},
	{"loss.weightmap_ms", "ms"},
	{"graph.forward_ms", "ms"},
	{"graph.backward_ms", "ms"},
	{"graph.exec_overhead_frac", "frac"},
	{"graph.infer_forward_b1_ms", "ms"},
	{"graph.infer_forward_b8_ms", "ms"},
	{"graph.pool_miss_per_step", "count"},
	{"nn.fwd_conv_ms", "ms"},
	{"nn.fwd_pointwise_ms", "ms"},
	{"nn.fwd_copy_ms", "ms"},
	{"nn.infer_conv_ms", "ms"},
	{"nn.infer_norm_ms", "ms"},
	{"nn.infer_other_ms", "ms"},
	{"tensor.fma_peak_gflops", "GFLOP/s"},
	{"tensor.gemm_conv_gflops", "GFLOP/s"},
	{"tensor.gemm_square_gflops", "GFLOP/s"},
	{"tensor.gemm_tile_gflops", "GFLOP/s"},
	{"tensor.gemm_conv_peak_frac", "frac"},
	{"tensor.gemm_fanout_gain", "ratio"},
	{"tensor.pool_hit_frac", "frac"},
	{"opt.step_ms", "ms"},
	{"horovod.exchange_ms", "ms"},
	{"horovod.wait_ms", "ms"},
	{"horovod.overlap_frac", "frac"},
	{"horovod.buckets_per_step", "count"},
	{"horovod.wire_kb_per_step", "KB"},
	{"horovod.ctl_msgs_per_step", "count"},
	{"allreduce.flat_ms", "ms"},
	{"mpi.msgs_per_step", "count"},
	{"mpi.bytes_per_step", "B"},
	{"mpi.pingpong_us", "us"},
	{"simnet.comm_virtual_us_per_step", "us"},
	{"simnet.virtual_steps_per_s", "1/s"},
	{"core.step_p50_ms", "ms"},
	{"core.step_p95_ms", "ms"},
	{"core.recomposed_step_ms", "ms"},
	{"core.overhead_frac", "frac"},
	{"core.snapshot_stall_ms", "ms"},
	{"core.pool_allocs_after_warmup", "count"},
	{"models.snapshot_bytes", "B"},
	{"models.snapshot_encode_ms", "ms"},
	{"models.snapshot_write_ms", "ms"},
	{"models.snapshot_decode_ms", "ms"},
	{"infer.plan_us", "us"},
	{"infer.runbatch_b1_ms", "ms"},
	{"infer.runbatch_b8_ms", "ms"},
	{"infer.batch_gain", "ratio"},
	{"infer.pack_stitch_frac", "frac"},
	{"infer.exit_scores_b8_ms", "ms"},
	{"infer.exit_cost_ratio", "ratio"},
	{"infer.segment_tiles_per_s", "1/s"},
	{"infer.pool_hit_frac", "frac"},
	{"serve.queue_wait_p50_ms", "ms"},
	{"serve.queue_wait_p95_ms", "ms"},
	{"serve.compute_p50_ms", "ms"},
	{"serve.mean_batch", "count"},
	{"serve.mean_batch_open", "count"},
	{"serve.queue_depth_peak", "count"},
	{"serve.exit_rate", "frac"},
	{"serve.latency_p99_ms", "ms"},
	{"serve.efficiency", "frac"},
	{"serve.max_ok_rps", "1/s"},
	{"fleet.per_tile_overhead_us", "us"},
	{"fleet.swap_ms", "ms"},
	{"fleet.swap_window_p99_ms", "ms"},
	{"fleet.redispatched", "count"},
	{"fleet.virtual_req_per_s", "1/s"},
	{"stream.dropped_frac", "frac"},
	{"stream.queue_depth_peak", "count"},
	{"stream.efficiency", "frac"},
	{"storms.extract_ms", "ms"},
	{"storms.tracker_advance_us", "us"},
	{"bench.mean_ops_per_s", "1/s"},
	{"bench.lat_p50_ms", "ms"},
	{"bench.lat_p95_ms", "ms"},
	{"bench.retained_kb_per_op", "KB"},
	{"bench.mem_peak_mb", "MB"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.gen_late_p95_ms", "ms"},
	{"bench.host_noisy", "count"},
}

// outcome is what one run of one workload produced.
type outcome struct {
	values    map[string]float64 // metric name → value; missing names read 0
	notes     map[string]float64 // sample counts and inter-quartile distances, by "<metric>.n" / "<metric>.iqr"
	attempted int
	failed    int
	problems  []string // failed correctness checks; empty means correct
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, notes: map[string]float64{}}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) note(name string, v float64) { o.notes[name] = v }

// check records a failed correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// count adds a phase's attempts and failures.
func (o *outcome) count(p phase) {
	o.attempted += p.attempted
	o.failed += p.failed
}
