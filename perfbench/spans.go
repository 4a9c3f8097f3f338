package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Span is one call the benchmark made into a layer, timed from outside.
type Span struct {
	Name string
	// Lane groups spans for display (server, client, setup, …).
	Lane string
	// Frame is the frame (or batch) the call worked on; -1 for none.
	Frame int64
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int
	// Start and End are offsets from the tracer's origin.
	Start, End time.Duration
}

// Dur returns the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer keeps spans in memory; they are written out after the run. All
// methods are safe for concurrent use, and a nil *Tracer records nothing,
// so the untraced run calls the same code with tracing off.
type Tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []Span
}

// newTracer returns a tracer whose span offsets count from origin.
func newTracer(origin time.Time) *Tracer {
	return &Tracer{origin: origin, spans: make([]Span, 0, 4096)}
}

// Open starts a span and returns its id for Close and for children's
// parent; a nil tracer returns -1.
func (t *Tracer) Open(name, lane string, frame int64, parent int, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Lane: lane, Frame: frame, Parent: parent, Start: start.Sub(t.origin)})
	return len(t.spans) - 1
}

// Close ends the span id opened by Open.
func (t *Tracer) Close(id int, end time.Time) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.origin)
	t.mu.Unlock()
}

// Record adds a finished span and returns its id.
func (t *Tracer) Record(name, lane string, frame int64, parent int, start, end time.Time) int {
	id := t.Open(name, lane, frame, parent, start)
	t.Close(id, end)
	return id
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Overlapping children are counted
// once, and a child running past its parent's end is clipped to it.
func selfTimes(spans []Span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	type iv struct{ lo, hi time.Duration }
	for i, s := range spans {
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.hi <= reach {
				continue
			}
			covered += v.hi - max(v.lo, reach)
			reach = v.hi
		}
		self[i] = s.Dur() - covered
	}
	return self
}

// selfByName groups self times by span name, skipping spans of frames
// before minFrame (warm-up).
func selfByName(spans []Span, minFrame int64) map[string][]time.Duration {
	self := selfTimes(spans)
	out := map[string][]time.Duration{}
	for i, s := range spans {
		if s.Frame >= minFrame {
			out[s.Name] = append(out[s.Name], self[i])
		}
	}
	return out
}

// traceEvent is one Chrome trace-event ("X" complete event, or "M"
// metadata naming a lane), the format ui.perfetto.dev opens.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a Chrome trace, one thread per lane,
// with each span's frame and parent in its args.
func writeChromeTrace(w io.Writer, spans []Span) error {
	lanes := map[string]int{}
	var events []traceEvent
	for i, s := range spans {
		tid, ok := lanes[s.Lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[s.Lane] = tid
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
				Args: map[string]any{"name": s.Lane}})
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.Dur()) / 1e3,
			Args: map[string]any{"id": i, "frame": s.Frame, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(events)
}
