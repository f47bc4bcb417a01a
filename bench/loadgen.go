package main

import (
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxInFlight caps the open loop's outstanding requests; an arrival beyond
// it is refused and counts as failed.
const maxInFlight = 256

// spinBefore is how long before an arrival's instant the open-loop
// generator stops sleeping and starts spinning.
const spinBefore = 300 * time.Microsecond

// phase is what one load phase observed.
type phase struct {
	done      []time.Duration // completion instants of successful ops since phase start, sorted
	lat       []time.Duration // open loop: completion − due, successful ops
	late      []time.Duration // open loop: fire − due, every arrival
	attempted int
	failed    int // errors + refusals
	elapsed   time.Duration
}

// closedLoop runs `callers` goroutines that each issue their next op only
// after the previous one returned, until dur has elapsed. call reports
// whether the op succeeded (and its output was correct).
func closedLoop(callers int, dur time.Duration, call func(caller, i int) bool) phase {
	type local struct {
		done      []time.Duration
		attempted int
		failed    int
	}
	locals := make([]local, callers)
	for c := range locals {
		locals[c].done = make([]time.Duration, 0, 4096)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := &locals[c]
			for i := 0; time.Since(start) < dur; i++ {
				l.attempted++
				if call(c, i) {
					l.done = append(l.done, time.Since(start))
				} else {
					l.failed++
				}
			}
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	for _, l := range locals {
		p.done = append(p.done, l.done...)
		p.attempted += l.attempted
		p.failed += l.failed
	}
	sort.Slice(p.done, func(i, j int) bool { return p.done[i] < p.done[j] })
	return p
}

// poissonSchedule draws arrival instants at the given mean rate until dur.
func poissonSchedule(rate float64, dur time.Duration, rng *rand.Rand) []time.Duration {
	var due []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openLoop fires one op per scheduled instant regardless of how the system
// keeps up, each in its own goroutine, and waits for all of them. Latency
// is timed from the instant the op was due, so a stall is charged to every
// request queued behind it.
func openLoop(due []time.Duration, call func(i int) bool) phase {
	n := len(due)
	lat := make([]time.Duration, n)
	done := make([]time.Duration, n)
	ok := make([]bool, n)
	p := phase{attempted: n, late: make([]time.Duration, n)}
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, d := range due {
		// Sleep to just short of the instant, then yield-spin up to it: a
		// timer alone fires 0.1–1 ms late on the reference host, and that
		// lateness would be charged to the program's latency.
		if wait := d - time.Since(start) - spinBefore; wait > 0 {
			time.Sleep(wait)
		}
		for time.Since(start) < d {
			runtime.Gosched()
		}
		p.late[i] = time.Since(start) - d
		if inFlight.Load() >= maxInFlight {
			continue // refused: ok[i] stays false
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(i int, d time.Duration) {
			defer wg.Done()
			ok[i] = call(i)
			done[i] = time.Since(start)
			lat[i] = done[i] - d
			inFlight.Add(-1)
		}(i, d)
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	for i := range due {
		if ok[i] {
			p.done = append(p.done, done[i])
			p.lat = append(p.lat, lat[i])
		} else {
			p.failed++
		}
	}
	sort.Slice(p.done, func(i, j int) bool { return p.done[i] < p.done[j] })
	return p
}
