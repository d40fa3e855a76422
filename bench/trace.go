package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded from outside the
// program: the benchmark wraps the layer's public entry point, the
// program itself carries no instrumentation.
type span struct {
	name string
	// parent names the span that would contain this one in a real
	// session. Rungs are re-executed on their own, so containment is
	// logical (by name and op), not by wall-clock nesting.
	parent     string
	op, rep    int
	start, end time.Duration // since the tracer started
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: now(), spans: make([]span, 0, capacity)}
}

// time runs f inside a span and reports how long it took.
func (t *tracer) time(name, parent string, op, rep int, f func()) time.Duration {
	start := now()
	f()
	end := now()
	t.spans = append(t.spans, span{name, parent, op, rep, start.Sub(t.t0), end.Sub(t.t0)})
	return end.Sub(start)
}

// spanOverhead measures what one span costs, by timing empty ones.
func spanOverhead() time.Duration {
	const n = 20000
	probe := newTracer(n)
	start := now()
	for i := 0; i < n; i++ {
		probe.time("probe", "", i, 0, func() {})
	}
	return now().Sub(start) / n
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as bench/out/trace-<workload>.json in Chrome
// trace_event form (load it in chrome://tracing or Perfetto). Each op
// is a thread, so one op's rungs line up on one row.
func (t *tracer) write(workload string) error {
	events := make([]traceEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = traceEvent{
			Name: s.name, Cat: "bench", Ph: "X",
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			PID: 1, TID: s.op,
			Args: map[string]any{"op": s.op, "rep": s.rep, "parent": s.parent},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(buildDir, "trace-"+workload+".json"), data, 0o644)
}
