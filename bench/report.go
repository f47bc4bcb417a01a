package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is BENCHMARK.json, the declaration this program implements.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// resultFile is what `bench run` writes: the host it ran on and one entry
// per run (running again with the same -out appends, so a file can hold the
// repeats a comparison needs).
type resultFile struct {
	Header header      `json:"header"`
	Runs   []runResult `json:"runs"`
}

type runResult struct {
	Seed      int64                     `json:"seed"`
	WallS     float64                   `json:"wall_s"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	WallS     float64            `json:"wall_s"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// Notes are the sample counts (.n) and inter-quartile distances (.iqr)
	// printed beside a metric.
	Notes map[string]float64 `json:"notes,omitempty"`
}

// cmdRun runs every workload (or one), untraced then traced, each in a
// process of its own so that set-up time, memory and collector state are
// per workload.
func cmdRun(args []string) int {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	only := fs.String("workload", "", "run only this workload")
	out := fs.String("out", filepath.Join("bench", "out", "result.json"), "result file (appended to when it exists)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	printHeader(os.Stdout, *seed)
	run := runResult{Seed: *seed, Workloads: map[string]workloadResult{}}
	start := time.Now()
	status := 0
	for _, w := range workloads {
		if *only != "" && w.name != *only {
			continue
		}
		wstart := time.Now()
		res := workloadResult{Notes: map[string]float64{}}
		ok := true
		for trace := 0; trace <= 1 && ok; trace++ {
			childArgs := []string{"--workload", w.name, "--seed", strconv.FormatInt(*seed, 10),
				"--seconds", strconv.Itoa(runSeconds), "--trace", strconv.Itoa(trace)}
			line, notes, err := runChild(self, childArgs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, trace, err)
				status, ok = 1, false
				break
			}
			values := map[string]float64{}
			for name, mv := range line.Metrics {
				values[name] = mv.Value
			}
			for k, v := range notes {
				res.Notes[k] = v
			}
			if trace == 0 {
				res.EndToEnd, res.Attempted, res.Failed = values, line.Attempted, line.Failed
			} else {
				res.PerLayer = values
			}
		}
		if ok {
			res.WallS = time.Since(wstart).Seconds()
			run.Workloads[w.name] = res
		}
	}
	run.WallS = time.Since(start).Seconds()
	fmt.Printf("# total wall %.1fs\n", run.WallS)
	if err := appendRun(*out, *seed, run); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return status
}

// runChild runs one measured run, echoes its metric lines, and returns its
// result line and the notes line before it.
func runChild(self string, args []string) (*resultLine, map[string]float64, error) {
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, nil, err
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("run printed %d lines, want metrics, notes and a result", len(lines))
	}
	var notes notesLine
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &notes); err != nil {
		return nil, nil, fmt.Errorf("second-to-last line is not the notes: %w", err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return nil, nil, fmt.Errorf("last line is not a result: %w", err)
	}
	for _, l := range lines[:len(lines)-2] {
		if !strings.HasPrefix(l, "# nproc") {
			fmt.Println(l)
		}
	}
	return &line, notes.Notes, nil
}

func appendRun(path string, seed int64, run runResult) error {
	var file resultFile
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("%s exists and is not a result file: %w", path, err)
		}
	}
	file.Header = hostHeader(seed)
	file.Runs = append(file.Runs, run)
	data, err := json.MarshalIndent(&file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// cmdCompare applies BENCHMARK.json's bounds to two result files: A is the
// base, B the candidate.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	decl, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var files [2]resultFile
	for i, p := range args {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 1
		}
	}
	rows, worse := compare(decl, &files[0], &files[1])
	fmt.Printf("%-20s %-14s %12s %12s  %-22s %6s  %s\n", "workload", "metric", "A", "B", "B/A (base A)", "bound", "verdict")
	for _, r := range rows {
		fmt.Printf("%-20s %-14s %12.6g %12.6g  %-22s %5.0f%%  %s\n", r.workload, r.metric, r.a, r.b,
			fmt.Sprintf("%.3f of %.6g", r.ratio, r.a), 100*r.bound, r.verdict)
	}
	if worse {
		return 1
	}
	return 0
}

type compareRow struct {
	workload, metric string
	a, b, ratio      float64
	bound            float64
	verdict          string // ok, worse, unresolved, missing, more failures
}

// compare judges every end-to-end metric of every declared workload that
// either file holds. A side's value is the median over its runs. A metric
// is worse when it moved against its direction by more than the bound, and
// unresolved when either side's spread (see spreadOf), as a share of its
// median, is wider than the bound or cannot be known. A workload or a metric
// that A holds and B lacks (a run that crashed or failed a check emits
// none) is worse, and so is a workload with more failed ops in B, whatever
// its metrics say.
func compare(decl *benchmarkFile, a, b *resultFile) (rows []compareRow, worse bool) {
	for _, w := range decl.Workloads {
		sa, sb := side(a, w.Name), side(b, w.Name)
		switch {
		case sa == nil && sb == nil:
			continue
		case sa == nil:
			rows = append(rows, compareRow{workload: w.Name, metric: "*", verdict: "unresolved"}) // no base
			continue
		case sb == nil:
			rows = append(rows, compareRow{workload: w.Name, metric: "*", verdict: "missing"})
			worse = true
			continue
		}
		if sb.failed > sa.failed {
			rows = append(rows, compareRow{workload: w.Name, metric: "failed", a: sa.failed, b: sb.failed, ratio: sb.failed / max(sa.failed, 1), verdict: "more failures"})
			worse = true
		}
		for _, m := range decl.EndToEnd {
			x, y := sa.med[m.Name], sb.med[m.Name]
			r := compareRow{workload: w.Name, metric: m.Name, a: x, b: y, bound: m.Bound, verdict: "ok"}
			if !(x > 0) {
				r.verdict = "unresolved" // no base
				rows = append(rows, r)
				continue
			}
			r.ratio = y / x
			change := y/x - 1 // positive = grew
			if m.Better == "higher" {
				change = -change
			}
			spreadA, okA := sa.spreadOf(m.Name)
			spreadB, okB := sb.spreadOf(m.Name)
			switch {
			case !(y > 0):
				r.verdict = "missing"
				worse = true
			case !okA || !okB || max(spreadA/x, spreadB/y) > m.Bound:
				r.verdict = "unresolved"
			case change > m.Bound:
				r.verdict = "worse"
				worse = true
			}
			rows = append(rows, r)
		}
	}
	return rows, worse
}

// sideStats is one file's runs of one workload, reduced.
type sideStats struct {
	med    map[string]float64   // median over the runs, per end-to-end metric
	series map[string][]float64 // the runs' values
	within map[string]float64   // median of the runs' own window inter-quartile distances, where recorded
	failed float64              // median failed count
}

// side reduces f's runs of a workload; nil when it has none.
func side(f *resultFile, workload string) *sideStats {
	s := &sideStats{med: map[string]float64{}, series: map[string][]float64{}, within: map[string]float64{}}
	within := map[string][]float64{}
	var fails []float64
	for _, run := range f.Runs {
		w, has := run.Workloads[workload]
		if !has {
			continue
		}
		fails = append(fails, float64(w.Failed))
		for k, v := range w.EndToEnd {
			s.series[k] = append(s.series[k], v)
			if q, ok := w.Notes[k+".iqr"]; ok {
				within[k] = append(within[k], q)
			}
		}
	}
	if len(fails) == 0 {
		return nil
	}
	for k, xs := range s.series {
		s.med[k] = median(xs)
	}
	for k, qs := range within {
		s.within[k] = median(qs)
	}
	s.failed = median(fails)
	return s
}

// spreadOf is how far a metric's runs lie apart: the inter-quartile
// distance over four runs or more, the whole range over two or three, and
// with a single run the inter-quartile distance of its own windows, which
// only the rates record — any other metric's spread is then unknown.
func (s *sideStats) spreadOf(metric string) (float64, bool) {
	xs := s.series[metric]
	switch {
	case len(xs) >= 4:
		return iqr(xs), true
	case len(xs) >= 2:
		return quantile(xs, 1) - quantile(xs, 0), true
	}
	q, ok := s.within[metric]
	return q, ok
}
