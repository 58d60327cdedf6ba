package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one workload call share a root: Parent
// names the span that caused this one (0 for a root). Attrs carries
// the counters the call itself returned (Result fields for a sort).
type span struct {
	ID     uint64             `json:"id"`
	Parent uint64             `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// ms is the span's duration in milliseconds.
func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// recorder keeps spans in memory for the traced run; they are written
// out once, when the run ends. A nil *recorder records nothing, so the
// untraced run shares the traced run's loops at no cost. Safe for
// concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newID reserves a span ID, so children can name a parent recorded
// after them. It returns 0 on a nil recorder.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// add records a span measured by the caller under a reserved id.
func (r *recorder) add(id, parent uint64, name string, start, end time.Time, attrs map[string]float64) {
	if r == nil {
		return
	}
	s := span{ID: id, Parent: parent, Name: name, Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(), Attrs: attrs}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// record records a span under a fresh id and returns the id.
func (r *recorder) record(parent uint64, name string, start, end time.Time, attrs map[string]float64) uint64 {
	id := r.newID()
	r.add(id, parent, name, start, end, attrs)
	return id
}

// named returns the recorded spans called name, in recording order.
func (r *recorder) named(name string) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in ms of the spans called name.
func (r *recorder) durations(name string) []float64 {
	spans := r.named(name)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

// attr returns attribute key of every span called name.
func (r *recorder) attr(name, key string) []float64 {
	spans := r.named(name)
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.Attrs[key]
	}
	return out
}

// write stores every span as JSON at path.
func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
