package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its call into the layer. parent is the index of the
// span that caused it (−1 for a root); spans of one step or request share
// op.
type span struct {
	Name   string             `json:"name"`
	Layer  string             `json:"layer"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Parent int                `json:"parent"`
	Op     int                `json:"op_id"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in a preallocated slice and writes them out when the
// pass ends. A nil tracer records nothing, so one code path serves the
// traced and untraced halves of an overhead comparison.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index.
func (t *tracer) begin(name, layer string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: now, Parent: parent, Op: op})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// add records a span whose interval was observed elsewhere.
func (t *tracer) add(name, layer string, op int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: -1, Op: op})
	t.mu.Unlock()
}

// attr attaches a number (a count or a stat the layer reported) to a span.
func (t *tracer) attr(id int, key string, v float64) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	if t.spans[id].Attrs == nil {
		t.spans[id].Attrs = map[string]float64{}
	}
	t.spans[id].Attrs[key] = v
	t.mu.Unlock()
}

// selfTimes returns, per span name, the durations of its spans minus the
// part their direct children cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]time.Duration{}
	for i, s := range t.spans {
		if s.End > 0 {
			out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start-child[i]))
		}
	}
	return out
}

// writeFile writes one JSON object per span.
func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
