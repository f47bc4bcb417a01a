package climate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/racecheck"
	"repro/internal/tensor"
)

const testH, testW = 96, 144

func testCfg() GenConfig { return DefaultGenConfig(testH, testW, 7) }

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(testCfg(), 5)
	b := Generate(testCfg(), 5)
	for i, v := range a.Fields.Data() {
		if b.Fields.Data()[i] != v {
			t.Fatal("fields not deterministic")
		}
	}
	for i, v := range a.Labels.Data() {
		if b.Labels.Data()[i] != v {
			t.Fatal("labels not deterministic")
		}
	}
	c := Generate(testCfg(), 6)
	same := true
	for i, v := range a.Fields.Data() {
		if c.Fields.Data()[i] != v {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different indices produced identical samples")
	}
}

func TestFieldShapesAndRanges(t *testing.T) {
	s := Generate(testCfg(), 0)
	if !s.Fields.Shape().Equal(tensor.Shape{NumChannels, testH, testW}) {
		t.Fatalf("fields shape %v", s.Fields.Shape())
	}
	if !s.Labels.Shape().Equal(tensor.Shape{testH, testW}) {
		t.Fatalf("labels shape %v", s.Labels.Shape())
	}
	if !tensor.AllFinite(s.Fields.Data()) {
		t.Fatal("non-finite field values")
	}
	// Physical sanity: pressure near 1000 hPa, moisture non-crazy.
	h, w := testH, testW
	psl := s.Fields.Data()[ChPSL*h*w : (ChPSL+1)*h*w]
	for _, v := range psl {
		if v < 850 || v > 1100 {
			t.Fatalf("implausible PSL %g", v)
		}
	}
	tmq := s.Fields.Data()[ChTMQ*h*w : (ChTMQ+1)*h*w]
	for _, v := range tmq {
		if v < -10 || v > 120 {
			t.Fatalf("implausible TMQ %g", v)
		}
	}
	for _, v := range s.Labels.Data() {
		if v != ClassBackground && v != ClassTC && v != ClassAR {
			t.Fatalf("bad label %g", v)
		}
	}
}

func TestClassImbalanceMatchesPaper(t *testing.T) {
	// Paper: ~98.2% BG, ~1.7% AR, <0.1%–~0.1% TC. Averaged over samples,
	// our bands: BG ∈ [95%, 99.5%], AR ∈ [0.4%, 4%], TC ∈ [0.02%, 1%].
	d := NewDataset(testCfg(), 12)
	freq := d.ClassFrequencies(12)
	t.Logf("class frequencies: BG=%.4f TC=%.4f AR=%.4f", freq[0], freq[1], freq[2])
	if freq[ClassBackground] < 0.95 || freq[ClassBackground] > 0.995 {
		t.Fatalf("BG frequency %g outside band", freq[ClassBackground])
	}
	if freq[ClassAR] < 0.004 || freq[ClassAR] > 0.04 {
		t.Fatalf("AR frequency %g outside band", freq[ClassAR])
	}
	if freq[ClassTC] < 0.0002 || freq[ClassTC] > 0.01 {
		t.Fatalf("TC frequency %g outside band", freq[ClassTC])
	}
	if freq[ClassAR] <= freq[ClassTC] {
		t.Fatal("ARs should cover more pixels than TCs")
	}
	sum := freq[0] + freq[1] + freq[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("frequencies sum to %g", sum)
	}
}

func TestEverySampleHasBothEventClasses(t *testing.T) {
	// The generator stamps ≥1 TC and ≥1 AR; the labeler should find at
	// least one of each in most samples. Require ≥80% hit rate per class.
	d := NewDataset(testCfg(), 10)
	tcHits, arHits := 0, 0
	for i := 0; i < d.Size; i++ {
		s := d.Sample(i)
		hasTC, hasAR := false, false
		for _, v := range s.Labels.Data() {
			if v == ClassTC {
				hasTC = true
			} else if v == ClassAR {
				hasAR = true
			}
		}
		if hasTC {
			tcHits++
		}
		if hasAR {
			arHits++
		}
	}
	t.Logf("detector hit rate over %d samples: TC %d, AR %d", d.Size, tcHits, arHits)
	if tcHits < 8 {
		t.Fatalf("TC detector found cyclones in only %d/10 samples", tcHits)
	}
	if arHits < 8 {
		t.Fatalf("AR detector found rivers in only %d/10 samples", arHits)
	}
}

func TestARsAreElongated(t *testing.T) {
	// Collect AR components and verify mean elongation exceeds the filter
	// threshold (sanity that the geometry filter actually ran).
	s := Generate(testCfg(), 3)
	labels := s.Labels.Data()
	w := testW
	seen := make([]bool, len(labels))
	for start := range labels {
		if labels[start] != ClassAR || seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, i)
			y, x := i/w, i%w
			for dy := -1; dy <= 1; dy++ {
				ny := y + dy
				if ny < 0 || ny >= testH {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					nx := ((x+dx)%w + w) % w
					j := ny*w + nx
					if labels[j] == ClassAR && !seen[j] {
						seen[j] = true
						stack = append(stack, j)
					}
				}
			}
		}
		if e := elongation(comp, w); e < arMinElong {
			t.Fatalf("AR component with elongation %g below filter %g", e, arMinElong)
		}
	}
}

func TestSplitProportions(t *testing.T) {
	d := NewDataset(testCfg(), 0)
	_ = d
	const n = 10000
	counts := map[Split]int{}
	for i := 0; i < n; i++ {
		counts[splitOf(i)]++
	}
	train := float64(counts[Train]) / n
	test := float64(counts[Test]) / n
	val := float64(counts[Validation]) / n
	t.Logf("splits: train=%.3f test=%.3f val=%.3f", train, test, val)
	if math.Abs(train-0.8) > 0.02 || math.Abs(test-0.1) > 0.02 || math.Abs(val-0.1) > 0.02 {
		t.Fatalf("split proportions off: %v", counts)
	}
	// Determinism.
	if splitOf(1234) != splitOf(1234) {
		t.Fatal("splitOf not deterministic")
	}
}

func TestDatasetIndicesPartition(t *testing.T) {
	d := NewDataset(testCfg(), 50)
	all := map[int]bool{}
	for _, s := range []Split{Train, Test, Validation} {
		for _, i := range d.Indices(s) {
			if all[i] {
				t.Fatalf("index %d in two splits", i)
			}
			all[i] = true
		}
	}
	if len(all) != 50 {
		t.Fatalf("splits cover %d of 50", len(all))
	}
}

func TestSelectChannels(t *testing.T) {
	s := Generate(testCfg(), 1)
	sub := SelectChannels(s.Fields, PizDaintChannels)
	if !sub.Shape().Equal(tensor.Shape{4, testH, testW}) {
		t.Fatalf("subset shape %v", sub.Shape())
	}
	// First subset channel must equal TMQ.
	hw := testH * testW
	for i := 0; i < hw; i++ {
		if sub.Data()[i] != s.Fields.Data()[ChTMQ*hw+i] {
			t.Fatal("channel subset mismatched data")
		}
	}
}

func TestSampleBytes(t *testing.T) {
	d := NewDataset(testCfg(), 1)
	want := (NumChannels + 1) * testH * testW * 4
	if d.SampleBytes() != want {
		t.Fatalf("SampleBytes = %d want %d", d.SampleBytes(), want)
	}
}

func TestSplitString(t *testing.T) {
	if Train.String() != "train" || Test.String() != "test" || Validation.String() != "validation" {
		t.Fatal("split names wrong")
	}
}

func TestPercentileAndHelpers(t *testing.T) {
	vals := []float32{5, 1, 3, 2, 4}
	if p := percentile(make([]float64, len(vals)), vals, 0); p != 1 {
		t.Fatalf("p0 = %g", p)
	}
	if p := percentile(make([]float64, len(vals)), vals, 1); p != 5 {
		t.Fatalf("p100 = %g", p)
	}
	if p := percentile(make([]float64, len(vals)), vals, 0.5); p != 3 {
		t.Fatalf("p50 = %g", p)
	}
	if unwrap(1, 143, 144) != 145 {
		t.Fatal("unwrap should cross the dateline")
	}
	if unwrap(70, 72, 144) != 70 {
		t.Fatal("unwrap should be identity nearby")
	}
}

// TestBaseClimateAllocatesNothing: the background fields are generated in
// place — each channel's noise is drawn into the channel's own plane — so
// a sample costs no scratch beyond its tensors (the 16 noise planes and
// lattices were 114 KB of a 32×48 stream frame's 273 KB).
func TestBaseClimateAllocatesNothing(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("allocation counts under the race detector describe the detector")
	}
	f := tensor.New(tensor.Shape{NumChannels, 32, 48})
	rng := rand.New(rand.NewSource(1))
	if n := testing.AllocsPerRun(10, func() { genBaseClimate(f, rng) }); n != 0 {
		t.Errorf("genBaseClimate allocates %v objects per call, want 0", n)
	}
}
