package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call across a layer boundary. Parent is the ID of the
// span that caused it (0 for a root); spans of one cell share Cell.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"` // seconds since the tracer started
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Cell   string  `json:"cell"`
}

// tracer keeps spans in memory; write puts them on disk when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	// probes holds the unit probes, which cost the same on every workload:
	// the first traced pass of a process times them, the rest reuse them.
	probes map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name, cell string, parent int) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Cell: cell,
		Start: time.Since(t.t0).Seconds()})
	return id
}

func (t *tracer) end(id int) { t.spans[id-1].End = time.Since(t.t0).Seconds() }

// total sums the duration of every span with the given name recorded since
// the tracer held from spans: one tracer serves every workload of a run.
func (t *tracer) total(name string, from int) (sum float64) {
	for _, s := range t.spans[from:] {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
