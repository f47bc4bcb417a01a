package mpi

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/simnet"
)

func TestSendRecvRoundTrip(t *testing.T) {
	w := NewWorld(simnet.Loopback(2))
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 7, []float32{1, 2, 3})
			got := c.Recv(1, 8)
			if got[0] != 9 {
				t.Errorf("rank 0 got %v", got)
			}
		} else {
			got := c.Recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("rank 1 got %v", got)
			}
			c.Send(0, 8, []float32{9})
		}
	})
	if w.MessageCount() != 2 {
		t.Fatalf("messages = %d", w.MessageCount())
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(simnet.Loopback(2))
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float32{1}
			c.Send(1, 1, buf)
			buf[0] = 99 // must not affect the in-flight message
			c.Send(1, 2, buf)
		} else {
			if got := c.Recv(0, 1); got[0] != 1 {
				t.Errorf("payload aliased: %v", got)
			}
			c.Recv(0, 2)
		}
	})
}

func TestTagAndSourceMatching(t *testing.T) {
	w := NewWorld(simnet.Loopback(3))
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(2, 5, []float32{10})
		case 1:
			c.Send(2, 5, []float32{20})
		case 2:
			// Receive specifically from rank 1 first, then rank 0.
			if got := c.Recv(1, 5); got[0] != 20 {
				t.Errorf("src matching failed: %v", got)
			}
			if got := c.Recv(0, 5); got[0] != 10 {
				t.Errorf("src matching failed: %v", got)
			}
		}
	})
}

func TestAnySource(t *testing.T) {
	w := NewWorld(simnet.Loopback(3))
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			sum := float32(0)
			for i := 0; i < 2; i++ {
				got := c.Recv(AnySource, 1)
				sum += got[0]
			}
			if sum != 30 {
				t.Errorf("sum = %g", sum)
			}
		} else {
			c.Send(0, 1, []float32{float32(c.Rank() * 10)})
		}
	})
}

func TestVirtualClockAdvances(t *testing.T) {
	fabric := simnet.NewTwoLevelFabric(2, 1,
		simnet.LinkSpec{LatencySec: 1e-6, BytesPerSec: 1e9},
		simnet.LinkSpec{LatencySec: 1e-3, BytesPerSec: 1e6}) // slow inter link
	w := NewWorld(fabric)
	makespan := w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Advance(0.5)
			c.Send(1, 1, make([]float32, 250)) // 1064 bytes @1e6 B/s ≈ 1.06ms
		} else {
			c.Recv(0, 1)
			// Receiver clock ≥ sender clock (0.5) + latency + transfer.
			if c.Clock() < 0.5+1e-3 {
				t.Errorf("receiver clock %g too small", c.Clock())
			}
		}
	})
	if makespan < 0.5 {
		t.Fatalf("makespan %g", makespan)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	w := NewWorld(simnet.Loopback(4))
	w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			c.Advance(1.0) // slowpoke
		}
		c.Barrier()
		if c.Clock() < 1.0 {
			t.Errorf("rank %d clock %g below barrier time", c.Rank(), c.Clock())
		}
	})
}

func TestBcast(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		for root := 0; root < n; root += 2 {
			w := NewWorld(simnet.Loopback(n))
			w.Run(func(c *Comm) {
				buf := make([]float32, 4)
				if c.Rank() == root {
					for i := range buf {
						buf[i] = float32(i + 100)
					}
				}
				c.Bcast(root, buf)
				for i := range buf {
					if buf[i] != float32(i+100) {
						t.Errorf("n=%d root=%d rank=%d buf=%v", n, root, c.Rank(), buf)
						return
					}
				}
			})
		}
	}
}

func testAllreduceCorrect(t *testing.T, alg Algorithm, n, length int) {
	t.Helper()
	// Each rank contributes rank-dependent values; expected sum is known.
	expected := make([]float32, length)
	inputs := make([][]float32, n)
	rng := rand.New(rand.NewSource(int64(n*1000 + length)))
	for r := 0; r < n; r++ {
		inputs[r] = make([]float32, length)
		for i := range inputs[r] {
			inputs[r][i] = float32(rng.Intn(100)) / 4
			expected[i] += inputs[r][i]
		}
	}
	w := NewWorld(simnet.Loopback(n))
	w.Run(func(c *Comm) {
		buf := make([]float32, length)
		copy(buf, inputs[c.Rank()])
		c.Allreduce(buf, alg)
		for i := range buf {
			if math.Abs(float64(buf[i]-expected[i])) > 1e-3 {
				t.Errorf("%v n=%d len=%d rank=%d elem %d: %g want %g",
					alg, n, length, c.Rank(), i, buf[i], expected[i])
				return
			}
		}
	})
}

func TestRingAllreduce(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6, 7} {
		for _, l := range []int{1, 5, 64, 1000} {
			testAllreduceCorrect(t, Ring, n, l)
		}
	}
}

func TestRecursiveDoublingAllreduce(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 9} {
		testAllreduceCorrect(t, RecursiveDoubling, n, 100)
	}
}

func TestTreeAllreduce(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8, 11} {
		testAllreduceCorrect(t, BinomialTree, n, 100)
	}
}

func TestAllreduceSingleRankNoop(t *testing.T) {
	w := NewWorld(simnet.Loopback(1))
	w.Run(func(c *Comm) {
		buf := []float32{42}
		c.Allreduce(buf, Ring)
		if buf[0] != 42 {
			t.Errorf("single-rank allreduce changed data")
		}
	})
	if w.MessageCount() != 0 {
		t.Fatal("single-rank allreduce sent messages")
	}
}

func TestAllreduceGroup(t *testing.T) {
	// Ranks {1,3,5} reduce among themselves; others idle.
	group := []int{1, 3, 5}
	w := NewWorld(simnet.Loopback(6))
	w.Run(func(c *Comm) {
		in := group[0] == c.Rank() || group[1] == c.Rank() || group[2] == c.Rank()
		if !in {
			return
		}
		buf := []float32{float32(c.Rank()), 1}
		c.AllreduceGroup(buf, group)
		if buf[0] != 9 || buf[1] != 3 {
			t.Errorf("rank %d group allreduce = %v", c.Rank(), buf)
		}
	})
}

func TestRingBandwidthOptimality(t *testing.T) {
	// For large buffers the ring moves ~2·(n-1)/n · bytes per rank,
	// regardless of n — the property that makes it bandwidth-optimal.
	// Verify traffic accounting matches that within overheads.
	const length = 9000
	for _, n := range []int{2, 4, 8} {
		w := NewWorld(simnet.Loopback(n))
		w.Run(func(c *Comm) {
			buf := make([]float32, length)
			c.Allreduce(buf, Ring)
		})
		perRank := float64(w.BytesSent()) / float64(n)
		ideal := 2 * float64(n-1) / float64(n) * length * 4
		if perRank < ideal || perRank > ideal*1.15 {
			t.Fatalf("n=%d per-rank traffic %.0f, ideal %.0f", n, perRank, ideal)
		}
	}
}

func TestAlgorithmString(t *testing.T) {
	if Ring.String() != "ring" || RecursiveDoubling.String() != "recursive-doubling" ||
		BinomialTree.String() != "binomial-tree" {
		t.Fatal("algorithm names wrong")
	}
}

func TestPartitionProperty(t *testing.T) {
	for length := 0; length < 50; length++ {
		for n := 1; n <= 8; n++ {
			total := 0
			prev := 0
			for i := 0; i < n; i++ {
				lo, hi := ChunkSpan(length, n, i)
				if lo != prev {
					t.Fatalf("gap in ChunkSpan(%d,%d,%d)", length, n, i)
				}
				if hi < lo {
					t.Fatalf("negative span in ChunkSpan(%d,%d,%d)", length, n, i)
				}
				total += hi - lo
				prev = hi
			}
			if total != length {
				t.Fatalf("ChunkSpan(%d,%d) covers %d", length, n, total)
			}
		}
	}
}
