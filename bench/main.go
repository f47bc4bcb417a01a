// Command bench is the repository's benchmark: six named workloads over
// the public exaclim paths, eight end-to-end metrics measured with tracing
// off, and a traced pass that attributes time to each internal layer by
// timing calls into its public functions from outside. BENCHMARK.json at
// the repository root declares the same names; README.md is the glossary.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1   one measured run, result JSON on the last line
//	bench run [-seed N] [-workload NAME] [-out FILE]         every workload, untraced then traced
//	bench compare A.json B.json                              apply BENCHMARK.json's bounds to two result files
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/tensor"
)

// runSeconds is the measuring time of one run; BENCHMARK.json's
// run_seconds says the same.
const runSeconds = 15

// env is what a workload is handed.
type env struct {
	seed    int64
	seconds float64 // measuring budget of this run
	smoke   bool    // tiny sizes: checks the plumbing, not the numbers
	tmp     string  // scratch directory inside the checkout, removed on exit
	tr      *tracer // non-nil in a traced run
}

// dur is a share of the run's measuring budget.
func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.seconds * float64(time.Second))
}

// setupReps is how many times a workload's set-up runs; setup_s is the
// median.
func (e *env) setupReps() int {
	if e.smoke {
		return 1
	}
	return 3
}

// repeatSetup sets the system up setupReps times, tearing down all but the
// last, and returns the last one with every set-up's duration in seconds.
func repeatSetup[T any](e *env, setUp func(rep int) (T, error), tearDown func(T)) (T, []float64, error) {
	var last T
	var took []float64
	for rep := 0; rep < e.setupReps(); rep++ {
		if rep > 0 {
			tearDown(last)
		}
		t0 := time.Now()
		var err error
		if last, err = setUp(rep); err != nil {
			return last, nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return last, took, nil
}

// openRate is the arrival rate of an open-loop phase: the workload's own, or
// in a smoke run one high enough that its split second of Poisson arrivals
// cannot come up short of minSamples.
func (e *env) openRate(perSecond float64) float64 {
	if e.smoke {
		return 200
	}
	return perSecond
}

// fieldSet sizes the multi-tile request workloads' traffic: 8 fields of
// 64×64, 25 tiles each; a smoke run takes 2 of 40×40, 9 tiles each.
func (e *env) fieldSet() (n, grid, tiles int) {
	if e.smoke {
		return 2, 40, 9
	}
	return 8, 64, 25
}

// minSamples is the fewest ops a phase must complete for its metrics to
// mean anything; a phase that falls short fails the run with errTooFew.
func (e *env) minSamples() int {
	if e.smoke {
		return 3
	}
	return 30
}

var errTooFew = errors.New("too few samples")

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	// run measures the end-to-end metrics with tracing off.
	run func(e *env) (*outcome, error)
	// trace measures the per-layer metrics.
	trace func(e *env) (*outcome, error)
}

var workloads = []workload{
	trainOneRank,
	trainEightRankCkpt,
	serveTiles,
	serveFieldsSparse,
	fleetSwap,
	streamWatch,
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "run":
			os.Exit(cmdRun(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		}
	}
	os.Exit(cmdOne(os.Args[1:]))
}

// resultLine is the last line of a measured run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// notesLine is the line before it: sample counts ("<metric>.n") and window
// inter-quartile distances ("<metric>.iqr") of the metrics printed.
type notesLine struct {
	Notes map[string]float64 `json:"notes"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// cmdOne is the driver's entry: one workload, one seed, traced or not.
func cmdOne(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Float64("seconds", runSeconds, "measuring time")
	trace := fs.Int("trace", 0, "1 = traced per-layer pass")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive")
		return 2
	}
	start := time.Now()
	out, err := measure(w, *seed, *seconds, *trace == 1, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printHeader(os.Stdout, *seed)
	fmt.Printf("# workload %s trace %d wall %.3fs\n", w.name, *trace, time.Since(start).Seconds())
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, p)
	}
	if len(out.problems) > 0 {
		return 1 // a failed check emits no metrics
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	line := resultLine{Correct: true, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: map[string]metricValue{}}
	notes := notesLine{Notes: map[string]float64{}}
	for _, d := range defs {
		v := out.values[d.name]
		extra := ""
		if n, ok := out.notes[d.name+".n"]; ok {
			extra += fmt.Sprintf(" n=%d", int(n))
			notes.Notes[d.name+".n"] = n
		}
		if q, ok := out.notes[d.name+".iqr"]; ok {
			extra += fmt.Sprintf(" iqr=%.6g", q)
			notes.Notes[d.name+".iqr"] = q
		}
		fmt.Printf("%s %s %.6g %s%s\n", w.name, d.name, v, d.unit, extra)
		line.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	// The result object is the last line and holds exactly what the
	// acceptance driver reads; the counts and spreads `bench run` keeps ride
	// in an object of their own on the line before it.
	for _, v := range []any{notes, line} {
		js, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(string(js))
	}
	return 0
}

// measure runs one workload in a scratch directory of its own.
func measure(w workload, seed int64, seconds float64, traced, smoke bool) (*outcome, error) {
	base := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(base, w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{seed: seed, seconds: seconds, smoke: smoke, tmp: tmp}
	if !traced {
		return w.run(e)
	}
	e.tr = newTracer()
	out, err := w.trace(e)
	if err != nil {
		return nil, err
	}
	// The trace file closes with one record holding what the result line
	// has no room for: sample counts, the per-op split, probe shapes, and each
	// span name's first-decile self time (its spans minus their children).
	for name, self := range e.tr.selfTimes() {
		out.note("self_ms."+name, quietMS(self))
	}
	rec := e.tr.begin("notes", "bench", -1, -1)
	for _, k := range sortedKeys(out.notes) {
		e.tr.attr(rec, k, out.notes[k])
	}
	e.tr.end(rec)
	if !smoke {
		if err := e.tr.writeFile(filepath.Join("bench", "out", w.name+".trace.jsonl")); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// header describes the host and build a result was taken on.
type header struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	KernelFan  int    `json:"kernel_fanout"` // tensor.Parallelism: workers one kernel call fans out to
	CPU        string `json:"cpu"`
	ISA        string `json:"isa"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       int64  `json:"seed"`
}

func hostHeader(seed int64) header {
	return header{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		KernelFan:  tensor.Parallelism(),
		CPU:        cpuModel(),
		ISA:        tensor.ActiveISA().String(),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		Seed:       seed,
	}
}

func printHeader(w *os.File, seed int64) {
	h := hostHeader(seed)
	fmt.Fprintf(w, "# nproc %d GOMAXPROCS %d kernel_fanout %d cpu %q isa %s %s commit %s seed %d\n",
		h.NProc, h.GOMAXPROCS, h.KernelFan, h.CPU, h.ISA, h.Go, h.Commit, h.Seed)
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checked-out commit, or "unknown" outside a git checkout
// (the acceptance driver runs the benchmark from an exported tree).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
