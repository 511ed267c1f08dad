package main

// The benchmark's own spans: one per call into a layer's public function,
// each with its parent, kept in memory and written out as trace_event JSON
// when the traced run ends (beside the runtime's phase spans, which come
// from the observer).

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// span is one timed call: Name is "<layer>:<function>".
type span struct {
	ID     int
	Parent int // 0 for a root span
	Name   string
	Start  time.Duration
	Dur    time.Duration
}

// recorder collects spans from the benchmark's single driving goroutine.
type recorder struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indices
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// do runs f inside a span named name, nested under the innermost open span,
// and returns f's wall time.
func (r *recorder) do(name string, f func()) time.Duration {
	parent := 0
	if len(r.open) > 0 {
		parent = r.spans[r.open[len(r.open)-1]].ID
	}
	i := len(r.spans)
	r.spans = append(r.spans, span{ID: i + 1, Parent: parent, Name: name})
	r.open = append(r.open, i)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	r.spans[i].Start = t0.Sub(r.epoch)
	r.spans[i].Dur = d
	r.open = r.open[:len(r.open)-1]
	return d
}

// write stores the benchmark's spans, stamped with the run's provenance,
// and every runtime observer's phase spans as trace_event JSON files under
// dir, named after the run.
func (r *recorder) write(dir, stem string, prov provenance, observers map[string]*obs.Observer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, len(r.spans))
	for i, s := range r.spans {
		events[i] = event{
			Name: s.Name, Ph: "X",
			Ts:   float64(s.Start.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "metadata": prov})
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, stem+"-spans.json"), b, 0o644); err != nil {
		return err
	}
	for name, o := range observers {
		if err := o.WriteTraceFile(filepath.Join(dir, fmt.Sprintf("%s-%s.json", stem, name))); err != nil {
			return err
		}
	}
	return nil
}
