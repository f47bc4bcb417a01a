package tensor

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkFanoutDispatch is the cost of the pool itself: an empty
// two-chunk fan-out — one worker woken, one completion signalled. The
// worker is hot (the loop re-wakes it at once), so this is the floor of a
// dispatch, not the wake-up latency of a parked worker; the ladder below
// sees both.
func BenchmarkFanoutDispatch(b *testing.B) {
	body := func(lo, hi int) {}
	parallelFor(2, 2, body)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parallelFor(2, 2, body)
	}
}

// BenchmarkFanoutLadder is where fanoutChunkWork is read from: per kernel
// family a ladder of sizes, each timed run inline and split in two over the
// pool with the gate bypassed (the chunk kernels are called directly), as
// serial/split gain per rung. The crossover it reports per family is the
// work of the first rung from which every larger one gains at least 1.15× —
// the gate constant is set near the largest of them, halved (it counts per
// chunk). Work is in the gate's own unit: FLOPs for the GEMM, bytes
// moved for im2col and axpy.
func BenchmarkFanoutLadder(b *testing.B) {
	// Workers 1 keeps the gate shut inside the kernels (the serial side is
	// serial); the explicit two-chunk parallelFor below splits regardless.
	defer SetParallelism(SetParallelism(1))
	const minGain = 1.15
	geom := func(hw int) ConvGeom {
		return ConvGeom{InH: hw, InW: hw, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, DilH: 1, DilW: 1}
	}
	type rung struct {
		work   int
		n      int              // fan-out index count
		kernel func(lo, hi int) // the chunk kernel over [lo, hi) of n
	}
	families := []struct {
		name  string
		rungs []rung
	}{{name: "gemm"}, {name: "im2col"}, {name: "axpy"}}
	// GEMM: the backward-data shape (m = C·9 rows, split over two row
	// halves exactly as the M-block fan-out does) from 16×16 tiles up.
	for _, s := range []struct{ m, n, k int }{
		{144, 256, 16}, {288, 256, 16}, {288, 256, 32}, {288, 1024, 16}, {288, 1024, 32}, {288, 1024, 64}, {288, 4096, 32}, {256, 512, 512},
	} {
		a, bm, c := make([]float32, s.m*s.k), make([]float32, s.k*s.n), make([]float32, s.m*s.n)
		families[0].rungs = append(families[0].rungs, rung{2 * s.m * s.n * s.k, s.m, func(lo, hi int) {
			Gemm(false, false, hi-lo, s.n, s.k, 1, a[lo*s.k:], s.k, bm, s.n, 0, c[lo*s.n:], s.n)
		}})
	}
	for _, s := range []struct{ c, hw int }{{8, 16}, {16, 16}, {32, 16}, {16, 32}, {32, 32}, {64, 32}, {32, 64}, {64, 64}, {64, 128}} {
		g := geom(s.hw)
		src, dst := make([]float32, s.c*s.hw*s.hw), make([]float32, s.c*9*s.hw*s.hw)
		families[1].rungs = append(families[1].rungs, rung{4 * len(dst), s.c, func(lo, hi int) { im2colRange(src, s.c, g, dst, lo, hi) }})
	}
	for n := 1 << 12; n <= 1<<21; n <<= 1 {
		x, y := make([]float32, n), make([]float32, n)
		families[2].rungs = append(families[2].rungs, rung{12 * n, n, func(lo, hi int) { axpyRange(0.5, x, y, lo, hi) }})
	}
	// best is the least of several timings of f, each over enough
	// repetitions to fill ≈2 ms: the quiet-host time, which is what the
	// crossover is a property of.
	best := func(f func()) time.Duration {
		reps := 1
		for t := time.Now(); time.Since(t) < 2*time.Millisecond; reps++ {
			f()
		}
		least := time.Duration(1 << 62)
		for try := 0; try < 7; try++ {
			t := time.Now()
			for i := 0; i < reps; i++ {
				f()
			}
			least = min(least, time.Since(t)/time.Duration(reps))
		}
		return least
	}
	// Warm the second core before the first rung: on a virtual host it can
	// take a few hundred milliseconds of demand before a second vCPU runs
	// alongside the first, and until then every split looks like a loss.
	for t := time.Now(); time.Since(t) < 500*time.Millisecond; {
		last := families[0].rungs[len(families[0].rungs)-1]
		parallelFor(last.n, 2, last.kernel)
	}
	for _, fam := range families {
		crossover := -1
		for i, r := range fam.rungs {
			var serial, split time.Duration
			b.Run(fmt.Sprintf("%s/work%d", fam.name, r.work), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					serial = best(func() { r.kernel(0, r.n) })
					split = best(func() { parallelFor(r.n, 2, r.kernel) })
				}
				b.ReportMetric(float64(serial.Nanoseconds())/1e3, "serial-us")
				b.ReportMetric(float64(split.Nanoseconds())/1e3, "split-us")
				b.ReportMetric(float64(serial)/float64(split), "gain")
			})
			switch {
			case split == 0: // filtered out by -bench
			case float64(serial)/float64(split) < minGain:
				crossover = -1
			case crossover < 0:
				crossover = i
			}
		}
		// The crossover rides out as a result line of its own (0: no rung
		// from which every larger one gains), next to the constant in use.
		b.Run(fam.name+"/crossover", func(b *testing.B) {
			work := 0
			if crossover >= 0 {
				work = fam.rungs[crossover].work
			}
			b.ReportMetric(float64(work), "work")
			b.ReportMetric(float64(work/2), "work/chunk")
			b.ReportMetric(fanoutChunkWork, "gate-work/chunk")
		})
	}
}
