package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (spans inside the program are a later issue). Spans of one op share
// Op; Parent is the id of the span that caused this one, -1 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is tracing
// off: begin and end cost one nil check, so timed passes carry no spans.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its child spans cover. Children may overlap one another
// (concurrent tenants under one phase span): covered time counts once.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func covered(lo, hi int64, spans []span) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total int64
	end := lo
	for _, c := range spans {
		s, e := c.Start, c.End
		if s < end {
			s = end
		}
		if e > hi {
			e = hi
		}
		if e > s {
			total += e - s
			end = e
		}
	}
	return total
}

// selfByName sums self time over the spans of each name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(self[s.ID])
	}
	return out
}

// durations lists the durations of the spans with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}
