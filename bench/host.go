package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processCPU is the user+system CPU time this process has consumed. The
// guest kernel books stolen cycles separately, so CPU per op holds steadier
// than wall time on a host that is not ours alone.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// memPeakMB is this process's peak resident set (VmHWM) in MB, 0 where
// /proc is not available.
func memPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// counters is a reading of the process-wide cost counters, taken right
// after a forced collection so that the heap figures are live bytes and the
// collector starts every measured phase from the same state.
type counters struct {
	mem runtime.MemStats
	cpu time.Duration
}

func readCounters() counters {
	var c counters
	runtime.GC()
	runtime.ReadMemStats(&c.mem)
	c.cpu = processCPU()
	return c
}

// liveMB is the live heap plus goroutine stacks at the reading.
func (c counters) liveMB() float64 {
	return float64(c.mem.HeapAlloc+c.mem.StackInuse) / (1 << 20)
}

// costPerOp sets the cost metrics from two readings around n ops: CPU,
// allocations and bytes per op.
func (o *outcome) costPerOp(before, after counters, n int) {
	o.set("cpu_ms_per_op", ms(after.cpu-before.cpu)/float64(n))
	o.set("allocs_per_op", float64(after.mem.Mallocs-before.mem.Mallocs)/float64(n))
	o.set("bytes_per_op", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/float64(n))
	// Traced table only: what each op left behind that a collection cannot
	// free, and the process's peak resident set.
	o.set("bench.retained_kb_per_op", (float64(after.mem.HeapAlloc)-float64(before.mem.HeapAlloc))/1024/float64(n))
	o.set("bench.mem_peak_mb", memPeakMB())
}
