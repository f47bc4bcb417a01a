package tensor

import (
	"runtime"
	"sync"
	"testing"
)

// convLikeOperands returns deterministic FP32 and INT8 operands for an
// m×n×k product.
func convLikeOperands(m, n, k int) (a, b []float32, aq, bq []int8, scales []float32) {
	a, b = make([]float32, m*k), make([]float32, k*n)
	aq, bq = make([]int8, m*k), make([]int8, k*n)
	scales = make([]float32, m)
	for i := range a {
		a[i] = float32(i%7) - 3
		aq[i] = int8(i%11) - 5
	}
	for i := range b {
		b[i] = float32(i%5) - 2
		bq[i] = int8(i%13) - 6
	}
	for i := range scales {
		scales[i] = 0.01 * float32(i+1)
	}
	return a, b, aq, bq, scales
}

// TestWarmGemmAllocatesNothingAcrossGC: packing panels and INT8 accumulators
// are not the collector's to drop, so a warm conv-shaped Gemm and GemmInt8
// allocate 0 bytes even right after two forced collections (which empty
// any sync.Pool). The collections stay outside the measurement, and the
// best of three tries counts: the runtime's own goroutines allocate a few
// bytes now and then, the code under test would every time.
func TestWarmGemmAllocatesNothingAcrossGC(t *testing.T) {
	defer SetParallelism(SetParallelism(1)) // fan-out closures are not what this measures
	const m, n, k = 32, 1024, 288
	a, b, aq, bq, scales := convLikeOperands(m, n, k)
	c := make([]float32, m*n)
	for name, run := range map[string]func(){
		"Gemm":     func() { Gemm(false, false, m, n, k, 1, a, k, b, n, 0, c, n) },
		"GemmInt8": func() { GemmInt8(m, n, k, aq, scales, bq, 0.02, c) },
	} {
		run()
		least := ^uint64(0)
		for try := 0; try < 3; try++ {
			runtime.GC()
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			run()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least != 0 {
			t.Errorf("warm %s allocated %d B after two collections, want 0", name, least)
		}
	}
}

// TestPanelFreeListExclusive hammers the panel free list from 8 goroutines
// with mixed sizes: a panel is held by one caller at a time (each holder's
// stamp survives a yield), and concurrent mixed-shape Gemms through the
// list match their serial results bit for bit. Run it under -race.
func TestPanelFreeListExclusive(t *testing.T) {
	const workers, rounds = 8, 200
	sizes := []int{64, 4096, 300, 16384, 1000, 70000}
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id float32) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				n := sizes[(int(id)+r)%len(sizes)]
				p := getPanel(n)
				if len(p.buf) < n {
					errs <- "panel shorter than requested"
					return
				}
				stamp := id*1000 + float32(r)
				p.buf[0], p.buf[n-1] = stamp, stamp
				runtime.Gosched()
				if p.buf[0] != stamp || p.buf[n-1] != stamp {
					errs <- "a panel reached two callers"
					return
				}
				putPanel(p)
			}
		}(float32(w))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}

	shapes := [][3]int{{32, 1024, 288}, {64, 128, 64}, {48, 512, 96}, {16, 2048, 40}}
	want := make([][]float32, len(shapes))
	for i, s := range shapes {
		a, b, _, _, _ := convLikeOperands(s[0], s[1], s[2])
		want[i] = make([]float32, s[0]*s[1])
		Gemm(false, false, s[0], s[1], s[2], 1, a, s[2], b, s[1], 0, want[i], s[1])
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 4*len(shapes); r++ {
				i := (w + r) % len(shapes)
				s := shapes[i]
				a, b, _, _, _ := convLikeOperands(s[0], s[1], s[2])
				c := make([]float32, s[0]*s[1])
				Gemm(false, false, s[0], s[1], s[2], 1, a, s[2], b, s[1], 0, c, s[1])
				for j, v := range want[i] {
					if c[j] != v {
						t.Errorf("goroutine %d: %v product differs from serial at %d", w, s, j)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
