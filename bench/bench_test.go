package main

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/exaclim"
	"repro/internal/tensor"
)

// The tests run from the repository root, like the benchmark itself.
func atRoot(t *testing.T) *benchmarkFile {
	t.Helper()
	t.Chdir("..")
	decl, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestDeclarationMatchesProgram holds BENCHMARK.json and the program's own
// lists equal, and both inside the limits a declaration must respect.
func TestDeclarationMatchesProgram(t *testing.T) {
	decl := atRoot(t)
	if decl.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program measures %d", decl.RunSeconds, runSeconds)
	}
	if len(decl.Workloads) != len(workloads) || len(workloads) > 8 {
		t.Fatalf("%d workloads declared, %d in the program (limit 8)", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		t.Helper()
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %v", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		d := decl.Workloads[i]
		unique(w.name)
		if d.Name != w.name || d.Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, d.Name, d.Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	same := func(kind string, declared []declaredMetric, have []metricDef, limit int) {
		t.Helper()
		if len(declared) != len(have) || len(have) > limit {
			t.Fatalf("%s: %d declared, %d in the program (limit %d)", kind, len(declared), len(have), limit)
		}
		for i, m := range have {
			d := declared[i]
			unique(m.name)
			if d.Name != m.name || d.Unit != m.unit {
				t.Errorf("%s %d: declared %s [%s], program has %s [%s]", kind, i, d.Name, d.Unit, m.name, m.unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, d.Name, d.Better)
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd, 16)
	same("per_layer", decl.PerLayer, perLayer, 128)
	for _, m := range decl.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range decl.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per_layer %s carries a bound", m.Name)
		}
	}
	if s := decl.EndToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s], lower; got %+v", s)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" {
		t.Errorf("paths %v, want [bench]", decl.Paths)
	}
}

// TestNamesInSource holds the declared names and the names the program sets
// equal without running it: every declared metric is a string literal
// somewhere outside the declaration list, and every literal handed to
// outcome.set is declared. (TestSmoke checks the same at run time for the
// names a smoke run reaches.)
func TestNamesInSource(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	var src strings.Builder
	for _, f := range files {
		if f == "metrics.go" || strings.HasSuffix(f, "_test.go") {
			continue
		}
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		src.Write(data)
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		declared[m.name] = true
		if !strings.Contains(src.String(), `"`+m.name+`"`) {
			t.Errorf("%s is declared and nothing sets it", m.name)
		}
	}
	for _, m := range regexp.MustCompile(`\.set\("([^"]+)"`).FindAllStringSubmatch(src.String(), -1) {
		if !declared[m[1]] {
			t.Errorf("the program sets %q, which is not declared", m[1])
		}
	}
}

// TestSmoke runs every workload untraced and traced at a tiny budget and
// checks that each reports exactly the declared names: every end-to-end
// metric non-zero, and no name outside the two lists.
func TestSmoke(t *testing.T) {
	atRoot(t)
	declared := map[string]bool{}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		declared[m.name] = true
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			// A tenth of a second is enough on an idle host; on a busy one
			// (tier-1 runs packages side by side) a phase can come up short
			// of samples, and the run is repeated with more time.
			seconds := 0.1
			if w.name == "stream_watch" {
				seconds = 0.4 // three frames paced at 18 FPS take 0.17 s, 0.6 of the budget
			}
			out, err := measure(w, 1, seconds, traced, true)
			for ; errors.Is(err, errTooFew) && seconds < 10; seconds *= 4 {
				out, err = measure(w, 1, 4*seconds, traced, true)
			}
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if len(out.problems) > 0 {
				t.Errorf("%s (traced %v): checks failed: %v", w.name, traced, out.problems)
			}
			for name := range out.values {
				if !declared[name] {
					t.Errorf("%s (traced %v) set %q, which BENCHMARK.json does not declare", w.name, traced, name)
				}
			}
			if out.attempted < 1 {
				t.Errorf("%s (traced %v): attempted %d", w.name, traced, out.attempted)
			}
			if traced {
				continue
			}
			for _, m := range endToEnd {
				if v := out.values[m.name]; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, m.name, v)
				}
			}
		}
	}
}

// TestChecksFire feeds each correctness check an output it must reject.
func TestChecksFire(t *testing.T) {
	field := tensor.New(tensor.Shape{1, 4, 4})
	good := tensor.New(tensor.Shape{4, 4})
	tr := &traffic{fields: []*tensor.Tensor{field}, refs: []uint64{maskHash(good)}}
	answer := func(mask *tensor.Tensor, err error) segmentFunc {
		return func(context.Context, *tensor.Tensor) (*tensor.Tensor, reqStat, error) { return mask, reqStat{}, err }
	}
	if !tr.request(answer(good, nil), 0) {
		t.Error("the reference mask was rejected")
	}
	flipped := good.Clone()
	flipped.Data()[5] = 1
	if tr.request(answer(flipped, nil), 0) {
		t.Error("a mask with one flipped pixel was accepted")
	}
	if tr.request(answer(good, errors.New("boom")), 0) {
		t.Error("a failed request was counted as correct")
	}

	flat := make([]float64, 200)
	falling := make([]float64, 200)
	for i := range flat {
		flat[i] = 1
		falling[i] = 1 / (1 + float64(i)/20)
	}
	if lossFell(flat) == nil {
		t.Error("a loss series that does not fall passed")
	}
	if err := lossFell(falling); err != nil {
		t.Errorf("a falling loss series failed: %v", err)
	}
	if lossFell(falling[:30]) == nil {
		t.Error("a loss series too short to judge passed")
	}

	o := newOutcome()
	checkStream(o, "paced", exaclim.StreamStats{Produced: 10, Processed: 8, Dropped: 1}, true)
	if len(o.problems) != 1 {
		t.Errorf("produced != processed + dropped raised %d problems, want 1", len(o.problems))
	}
	o = newOutcome()
	checkStream(o, "saturate", exaclim.StreamStats{Produced: 10, Processed: 9, Dropped: 1}, false)
	if len(o.problems) != 1 {
		t.Errorf("a drop under the block policy raised %d problems, want 1", len(o.problems))
	}
}

// TestStableSurface keeps the benchmark off the surfaces ROADMAP slates for
// deletion, so that the simplicity changes that follow need not edit it.
func TestStableSurface(t *testing.T) {
	forbidden := []string{
		"Exchange" + "Legacy", "Exchange" + "Serial", "graph.New" + "Executor(",
		"Save" + "Params", "Load" + "Params", "Save" + "Checkpoint(", "Load" + "Checkpoint(",
		"WithInit" + "Checkpoint", "With" + "WorkspacePolicy", "Workspace" + "Fresh",
		"Snapshot" + "V2",
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range forbidden {
			if strings.Contains(string(src), bad) {
				t.Errorf("%s references %s, which ROADMAP slates for deletion", f, bad)
			}
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	decl := &benchmarkFile{
		Workloads: []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{{Name: "w"}, {Name: "v"}},
		EndToEnd: []declaredMetric{
			{Name: "ops_per_s", Better: "higher", Bound: 0.1},
			{Name: "p50_ms", Better: "lower", Bound: 0.1},
		},
	}
	// file holds one run of workload w per value given; windowIQR, when not
	// zero, is each run's own ops_per_s.iqr note.
	file := func(failed int, windowIQR float64, ops, lat []float64) *resultFile {
		f := &resultFile{}
		for i := range ops {
			res := workloadResult{Failed: failed, EndToEnd: map[string]float64{"ops_per_s": ops[i], "p50_ms": lat[i]}}
			if windowIQR != 0 {
				res.Notes = map[string]float64{"ops_per_s.iqr": windowIQR}
			}
			f.Runs = append(f.Runs, runResult{Workloads: map[string]workloadResult{"w": res}})
		}
		return f
	}
	verdicts := func(a, b *resultFile) (map[string]string, bool) {
		rows, worse := compare(decl, a, b)
		out := map[string]string{}
		for _, r := range rows {
			out[r.workload+"."+r.metric] = r.verdict
		}
		return out, worse
	}
	base := file(0, 0, []float64{100, 101, 99, 100}, []float64{5, 5.1, 4.9, 5})

	for _, c := range []struct {
		name      string
		a, b      *resultFile
		worse     bool
		ops, lat  string
		extra     string // one more row that must carry extraWant
		extraWant string
	}{
		{name: "within the bound", a: base, b: file(0, 0, []float64{95, 96, 94, 95}, []float64{5.2, 5.3, 5.1, 5.2}), ops: "ok", lat: "ok"},
		{name: "throughput down a fifth", a: base, b: file(0, 0, []float64{80, 81, 79, 80}, []float64{5, 5, 5, 5}), worse: true, ops: "worse", lat: "ok"},
		{name: "latency up a fifth", a: base, b: file(0, 0, []float64{100, 100, 100, 100}, []float64{6, 6, 6, 6}), worse: true, ops: "ok", lat: "worse"},
		{name: "spread wider than the bound", a: base, b: file(0, 0, []float64{60, 100, 140, 100}, []float64{5, 5, 5, 5}), ops: "unresolved", lat: "ok"},
		{name: "two runs far apart", a: file(0, 0, []float64{100, 100}, []float64{5, 5}), b: file(0, 0, []float64{60, 140}, []float64{5, 5}), ops: "unresolved", lat: "ok"},
		{name: "one run each: only the rate's window spread is known", a: file(0, 2, []float64{100}, []float64{5}), b: file(0, 2, []float64{99}, []float64{5}), ops: "ok", lat: "unresolved"},
		{name: "one run each, windows far apart", a: file(0, 2, []float64{100}, []float64{5}), b: file(0, 30, []float64{99}, []float64{5}), ops: "unresolved", lat: "unresolved"},
		{name: "more failed ops", a: base, b: file(3, 0, []float64{100, 100, 100, 100}, []float64{5, 5, 5, 5}), worse: true, ops: "ok", lat: "ok", extra: "w.failed", extraWant: "more failures"},
		{name: "a metric the candidate did not report", a: base, b: file(0, 0, []float64{100, 100, 100, 100}, []float64{0, 0, 0, 0}), worse: true, ops: "ok", lat: "missing"},
		{name: "a workload the candidate did not finish", a: base, b: &resultFile{}, worse: true, extra: "w.*", extraWant: "missing"},
	} {
		got, worse := verdicts(c.a, c.b)
		if worse != c.worse || got["w.ops_per_s"] != c.ops || got["w.p50_ms"] != c.lat || got[c.extra] != c.extraWant {
			t.Errorf("%s: %v worse=%v", c.name, got, worse)
		}
		if _, has := got["v.*"]; has {
			t.Errorf("%s: workload v is in neither file and must not be judged: %v", c.name, got)
		}
	}
}

func TestEstimators(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if quantile(xs, 0.5) != 3 || quantile(xs, 0) != 1 || quantile(xs, 1) != 5 || quantile(xs, 0.25) != 2 {
		t.Errorf("quantiles of 1..5 wrong: %v %v %v %v", quantile(xs, 0.5), quantile(xs, 0), quantile(xs, 1), quantile(xs, 0.25))
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
	// 10 ops/s with a 0.4 s stall after every 50th op, as a checkpoint would
	// cause: every window holds stalls, so the median rate must fall to
	// 50 ops per 5.4 s.
	var done []time.Duration
	at := time.Duration(0)
	for i := 0; i < 500; i++ {
		at += 100 * time.Millisecond
		if i%50 == 49 {
			at += 400 * time.Millisecond
		}
		done = append(done, at)
	}
	if rate, _ := medianRate(done); math.Abs(rate-50/5.4) > 0.1 {
		t.Errorf("median rate %v with a recurring stall, want %v", rate, 50/5.4)
	}
}
