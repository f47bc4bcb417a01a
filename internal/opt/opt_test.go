package opt

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/racecheck"
	"repro/internal/tensor"
)

func quadParam(rng *rand.Rand, n int) Param {
	v := tensor.RandNormal(tensor.Shape{n}, 0, 1, rng)
	return Param{Name: "w", Value: v, Grad: tensor.New(tensor.Shape{n})}
}

// fillQuadGrad sets grad = 2·(w − target): gradient of ‖w − target‖².
func fillQuadGrad(p Param, target float32) {
	w, g := p.Value.Data(), p.Grad.Data()
	for i := range w {
		g[i] = 2 * (w[i] - target)
	}
}

func distTo(p Param, target float32) float64 {
	var s float64
	for _, v := range p.Value.Data() {
		d := float64(v - target)
		s += d * d
	}
	return math.Sqrt(s)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := quadParam(rng, 32)
	sgd := NewSGD(0.1, 0.9, 0)
	start := distTo(p, 3)
	for i := 0; i < 200; i++ {
		fillQuadGrad(p, 3)
		sgd.Step([]Param{p})
	}
	if end := distTo(p, 3); end > start*1e-3 {
		t.Fatalf("SGD did not converge: %g → %g", start, end)
	}
}

func TestSGDWeightDecayShrinksWeights(t *testing.T) {
	p := Param{Name: "w", Value: tensor.Full(tensor.Shape{4}, 10),
		Grad: tensor.New(tensor.Shape{4})}
	sgd := NewSGD(0.1, 0, 0.5)
	sgd.Step([]Param{p}) // grad 0 but decay pulls toward 0
	if got := p.Value.Data()[0]; got >= 10 {
		t.Fatalf("weight decay had no effect: %g", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := quadParam(rng, 32)
	adam := NewAdam(0.05)
	start := distTo(p, -1.5)
	for i := 0; i < 500; i++ {
		fillQuadGrad(p, -1.5)
		adam.Step([]Param{p})
	}
	if end := distTo(p, -1.5); end > start*1e-2 {
		t.Fatalf("Adam did not converge: %g → %g", start, end)
	}
}

func TestAdamScaleInvariance(t *testing.T) {
	// Adam's normalized updates make the first step ≈ lr regardless of
	// gradient magnitude.
	for _, scale := range []float32{1, 1000} {
		p := Param{Name: "w", Value: tensor.Full(tensor.Shape{1}, 0),
			Grad: tensor.FromSlice(tensor.Shape{1}, []float32{scale})}
		adam := NewAdam(0.1)
		adam.Step([]Param{p})
		got := float64(-p.Value.Data()[0])
		if math.Abs(got-0.1) > 0.01 {
			t.Fatalf("scale %g: first step %g, want ≈0.1", scale, got)
		}
	}
}

func TestLARCRateAdaptsToNorms(t *testing.T) {
	base := NewSGD(1.0, 0, 0)
	larc := NewLARC(base, 0.01)
	// Small gradient relative to weights → local rate large → clipped to lr.
	pBig := Param{Name: "a", Value: tensor.Full(tensor.Shape{100}, 1),
		Grad: tensor.Full(tensor.Shape{100}, 1e-6)}
	if r := larc.LayerRate(pBig); r != 1.0 {
		t.Fatalf("clip failed: rate %g", r)
	}
	// Huge gradient → local rate ≪ lr → effective rate Trust·‖w‖/‖g‖.
	pSmall := Param{Name: "b", Value: tensor.Full(tensor.Shape{100}, 1),
		Grad: tensor.Full(tensor.Shape{100}, 100)}
	want := 0.01 * 1.0 / 100.0
	if r := larc.LayerRate(pSmall); math.Abs(r-want)/want > 1e-6 {
		t.Fatalf("rate %g, want %g", r, want)
	}
}

func TestLARCLimitsUpdateMagnitude(t *testing.T) {
	// The defining LARC property: with an enormous gradient, the relative
	// weight change per step stays ≈ Trust, not lr·‖g‖/‖w‖.
	rng := rand.New(rand.NewSource(3))
	w := tensor.RandNormal(tensor.Shape{64}, 0, 1, rng)
	g := tensor.RandNormal(tensor.Shape{64}, 0, 1000, rng)
	p := Param{Name: "w", Value: w, Grad: g}
	before := w.Clone()

	larc := NewLARC(NewSGD(10 /* absurd lr */, 0, 0), 0.01)
	larc.Step([]Param{p})

	delta := tensor.Sub(w, before)
	rel := tensor.L2Norm(delta.Data()) / tensor.L2Norm(before.Data())
	if rel > 0.011 || rel < 0.009 {
		t.Fatalf("relative update %g, want ≈ Trust (0.01)", rel)
	}
}

func TestLARCDoesNotMutateCallerGrad(t *testing.T) {
	p := Param{Name: "w", Value: tensor.Full(tensor.Shape{4}, 1),
		Grad: tensor.Full(tensor.Shape{4}, 2)}
	larc := NewLARC(NewSGD(0.1, 0, 0), 0.001)
	larc.Step([]Param{p})
	if p.Grad.Data()[0] != 2 {
		t.Fatal("LARC mutated the caller's gradient")
	}
}

func TestLARCZeroGradSafe(t *testing.T) {
	p := Param{Name: "w", Value: tensor.Full(tensor.Shape{4}, 1),
		Grad: tensor.New(tensor.Shape{4})}
	larc := NewLARC(NewSGD(0.1, 0, 0), 0.001)
	larc.Step([]Param{p}) // must not divide by zero
	if !tensor.AllFinite(p.Value.Data()) {
		t.Fatal("zero gradient produced non-finite weights")
	}
}

func TestLagDelaysUpdates(t *testing.T) {
	p := Param{Name: "w", Value: tensor.Full(tensor.Shape{1}, 0),
		Grad: tensor.Full(tensor.Shape{1}, 1)}
	lag := NewLag(NewSGD(1, 0, 0), 1)

	// Step 1: gradient enqueued, no update applied.
	lag.Step([]Param{p})
	if p.Value.Data()[0] != 0 {
		t.Fatalf("lag-1 applied an update on the first step: %g", p.Value.Data()[0])
	}
	if lag.PendingSteps() != 1 {
		t.Fatalf("pending = %d", lag.PendingSteps())
	}
	// Step 2 with a *different* gradient: the old gradient (1) must apply.
	p.Grad.Fill(100)
	lag.Step([]Param{p})
	if got := p.Value.Data()[0]; got != -1 {
		t.Fatalf("lag-1 second step applied %g, want -1 (old gradient)", got)
	}
	// Step 3: now the 100 gradient lands.
	p.Grad.Fill(0)
	lag.Step([]Param{p})
	if got := p.Value.Data()[0]; got != -101 {
		t.Fatalf("lag-1 third step: %g, want -101", got)
	}
}

func TestLagZeroIsPassThrough(t *testing.T) {
	p := Param{Name: "w", Value: tensor.Full(tensor.Shape{1}, 0),
		Grad: tensor.Full(tensor.Shape{1}, 1)}
	lag := NewLag(NewSGD(1, 0, 0), 0)
	lag.Step([]Param{p})
	if p.Value.Data()[0] != -1 {
		t.Fatal("lag-0 should update immediately")
	}
}

func TestLagConvergesLikeUnlagged(t *testing.T) {
	// On a smooth quadratic, lag-1 converges to the same optimum, just a
	// step behind — the property that makes the paper's trick safe.
	rng := rand.New(rand.NewSource(4))
	p0 := quadParam(rng, 16)
	p1 := Param{Name: "w", Value: p0.Value.Clone(), Grad: tensor.New(tensor.Shape{16})}

	plain := NewSGD(0.05, 0, 0)
	lagged := NewLag(NewSGD(0.05, 0, 0), 1)
	for i := 0; i < 400; i++ {
		fillQuadGrad(p0, 2)
		plain.Step([]Param{p0})
		fillQuadGrad(p1, 2)
		lagged.Step([]Param{p1})
	}
	if d := distTo(p1, 2); d > 1e-3 {
		t.Fatalf("lagged SGD did not converge: dist %g", d)
	}
}

func TestSchedules(t *testing.T) {
	sched := PolynomialDecay(0.1, 0.001, 100, 2)
	if got := sched(0); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("sched(0) = %g", got)
	}
	if got := sched(100); got != 0.001 {
		t.Fatalf("sched(100) = %g", got)
	}
	if got := sched(200); got != 0.001 {
		t.Fatalf("sched(200) = %g", got)
	}
	if !(sched(10) > sched(50) && sched(50) > sched(90)) {
		t.Fatal("schedule not monotonic")
	}
	warm := LinearWarmup(sched, 10)
	if warm(0) >= warm(9) {
		t.Fatal("warmup not increasing")
	}
	if warm(10) != sched(10) {
		t.Fatal("warmup should end at schedule")
	}
}

func TestSetLRPropagates(t *testing.T) {
	larc := NewLARC(NewLag(NewSGD(0.1, 0.9, 0), 1), 0.001)
	larc.SetLR(0.5)
	if larc.LR() != 0.5 {
		t.Fatal("SetLR did not propagate through wrappers")
	}
}

// TestLagLARCAdamStepAllocs pins the trainer's deepest optimizer stack,
// Lag(1)→LARC→Adam, at zero heap allocations per steady-state step: the
// lag queue recycles the set it applies and LARC reuses its rescaled
// copies.
func TestLagLARCAdamStepAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts under the race detector describe the detector")
	}
	rng := rand.New(rand.NewSource(3))
	ps := []Param{quadParam(rng, 16), quadParam(rng, 48)}
	ps[1].Name = "b"
	lag := NewLag(NewLARC(NewAdam(1e-2), 0.01), 1)
	step := func() {
		for _, p := range ps {
			fillQuadGrad(p, 0.5)
		}
		lag.Step(ps)
	}
	step()
	step() // the queue and the moments now exist
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Errorf("a steady-state Lag(1)→LARC→Adam step allocates %.1f objects, want 0", n)
	}
}
