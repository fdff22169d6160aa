package main

import (
	"encoding/json"
	"os"
	"strings"
	"time"
)

// span is one timed call (or batch of calls) into a layer, recorded from
// the benchmark's side of the layer's public entry point.
type span struct {
	Name     string `json:"name"` // layer.operation
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"` // index of the causing span, -1 for a root
	Workload string `json:"workload"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{t0: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its index.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Workload: t.workload,
		Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// opTotals sums span durations by span name.
func (t *tracer) opTotals() map[string]time.Duration {
	tot := make(map[string]time.Duration)
	for _, s := range t.spans {
		tot[s.Name] += time.Duration(s.End - s.Start)
	}
	return tot
}

// layerSelf sums self time by layer (the part of a span's name before
// the dot): a span's duration minus what its child spans cover.
func (t *tracer) layerSelf() map[string]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	byLayer := make(map[string]time.Duration)
	for i, s := range t.spans {
		layer, _, _ := strings.Cut(s.Name, ".")
		byLayer[layer] += time.Duration(self[i])
	}
	return byLayer
}

// write stores the spans as a JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
