package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records spans in memory around the harness's calls into each
// layer and writes them out as Chrome trace-event JSON when the run
// ends. A nil *tracer is tracing off: begin returns a span that only
// measures, so the same code path yields the duration either way.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	events []traceEvent
	nextID int64
}

// traceEvent is one complete ("X") event of the Chrome trace-event
// format; chrome://tracing and ui.perfetto.dev load a JSON array of
// them. Args carries the span id and the id of the span that caused it.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds since the run began
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type span struct {
	t      *tracer
	name   string
	cat    string
	id     int64
	parent int64
	start  time.Time
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under parent (nil: a root). cat is the layer the
// call goes into, or "harness" for the run/workload/phase/rep levels.
func (t *tracer) begin(cat, name string, parent *span) *span {
	s := &span{t: t, name: name, cat: cat, start: time.Now()}
	if parent != nil {
		s.parent = parent.id
	}
	if t != nil {
		t.mu.Lock()
		t.nextID++
		s.id = t.nextID
		t.mu.Unlock()
	}
	return s
}

// end closes the span and returns its duration.
func (s *span) end() time.Duration {
	d := time.Since(s.start)
	if s.t == nil {
		return d
	}
	s.t.mu.Lock()
	s.t.events = append(s.t.events, traceEvent{
		Name: s.name, Cat: s.cat, Ph: "X",
		Ts:  float64(s.start.Sub(s.t.epoch).Nanoseconds()) / 1e3,
		Dur: float64(d.Nanoseconds()) / 1e3,
		Pid: 1, Tid: 1,
		Args: map[string]any{"id": s.id, "parent": s.parent},
	})
	s.t.mu.Unlock()
	return d
}

// call times fn inside a span of its own.
func (t *tracer) call(cat, name string, parent *span, fn func() error) (time.Duration, error) {
	s := t.begin(cat, name, parent)
	err := fn()
	return s.end(), err
}

func writeTraceFile(path string, events []traceEvent) error {
	b, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readTraceFile(path string) ([]traceEvent, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var events []traceEvent
	return events, json.Unmarshal(b, &events)
}
