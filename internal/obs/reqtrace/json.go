package reqtrace

// JSON export of the flight recorder's retained traces — the payload
// behind the admin endpoint's /debug/traces route and tereplay's
// -trace-dump flag. Export allocates freely (it runs on an operator's
// request, not the serve path) and locks each trace only long enough to
// copy its spans, so a span may keep annotating while a dump is in
// progress.

import (
	"encoding/json"
	"fmt"
	"io"
)

// Dump is the exported form of the recorder state.
type Dump struct {
	// Retained and Dropped are the cumulative sampling tallies; Traces
	// holds the ring's current contents, oldest first.
	Retained int64       `json:"retained"`
	Dropped  int64       `json:"dropped"`
	Traces   []TraceDump `json:"traces"`
}

// TraceDump is one retained trace.
type TraceDump struct {
	// Trace is the trace ID in hex.
	Trace  string     `json:"trace"`
	Reason string     `json:"retain_reason,omitempty"`
	Spans  []SpanDump `json:"spans"`
}

// SpanDump is one span. DurUS is -1 for a span that had not ended when the
// trace was exported (a child still running after its root ended).
type SpanDump struct {
	ID     uint64         `json:"id"`
	Parent uint64         `json:"parent,omitempty"`
	Name   string         `json:"name"`
	Start  int64          `json:"start_unix_ns"`
	DurUS  float64        `json:"dur_us"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// Snapshot copies the ring's current contents into exportable form,
// oldest retained trace first. Nil-safe (returns an empty Dump).
func (r *Recorder) Snapshot() Dump {
	if r == nil {
		return Dump{Traces: []TraceDump{}}
	}
	d := Dump{
		Retained: r.retained.Load(),
		Dropped:  r.dropped.Load(),
		Traces:   []TraceDump{},
	}
	// Walk the ring from the oldest slot. The cursor only grows, so slots
	// [cursor, cursor+capacity) mod capacity is oldest→newest order.
	cur := r.cursor.Load()
	for i := uint64(0); i < uint64(r.capacity); i++ {
		t := r.slots[(cur+i)%uint64(r.capacity)].Load()
		if t == nil {
			continue
		}
		d.Traces = append(d.Traces, t.export())
	}
	return d
}

// WriteJSON writes the Snapshot as JSON. Nil-safe: a nil recorder writes
// a valid empty dump, so the admin route works before tracing is wired.
func (r *Recorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.Snapshot())
}

func (t *trace) export() TraceDump {
	t.mu.Lock()
	td := TraceDump{
		Trace:  fmt.Sprintf("%016x", uint64(t.id)),
		Reason: t.reason,
		Spans:  make([]SpanDump, 0, len(t.spans)),
	}
	for _, sp := range t.spans {
		sd := SpanDump{
			ID:     uint64(sp.id),
			Parent: uint64(sp.parent),
			Name:   sp.name,
			Start:  sp.start.UnixNano(),
			DurUS:  -1,
		}
		if !sp.end.IsZero() {
			sd.DurUS = float64(sp.end.Sub(sp.start).Nanoseconds()) / 1e3
		}
		if len(sp.attrs) > 0 {
			sd.Attrs = make(map[string]any, len(sp.attrs))
			for _, a := range sp.attrs {
				switch a.Kind {
				case KindString:
					sd.Attrs[a.Key] = a.Str
				case KindInt:
					sd.Attrs[a.Key] = a.Int
				case KindFloat:
					sd.Attrs[a.Key] = a.Num
				case KindBool:
					sd.Attrs[a.Key] = a.Bool
				}
			}
		}
		td.Spans = append(td.Spans, sd)
	}
	t.mu.Unlock()
	return td
}
