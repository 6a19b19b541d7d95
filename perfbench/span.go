package main

import (
	"sort"
	"time"
)

// Span is one timed call the benchmark made into a layer of the system:
// its name (the layer metric it feeds), its interval relative to the
// tracer's epoch, the span that caused it (0 for a root) and the id of
// the request or pass it belongs to.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Tracer keeps spans in memory until the run writes them out. A nil
// *Tracer records nothing, so untraced and traced runs share call sites.
// It is used from one goroutine only.
type Tracer struct {
	epoch time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{epoch: time.Now()} }

// Begin opens a span and returns its id (0 on a nil tracer).
func (t *Tracer) Begin(name, req string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: now})
	return len(t.spans)
}

// End closes the span opened by Begin.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.epoch).Nanoseconds()
}

// ms returns the duration of a recorded span in milliseconds.
func (t *Tracer) ms(id int) float64 {
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e6
}

// Spans returns every recorded span.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval covered by the union of its children's
// intervals. Children may overlap one another or stick out of the parent;
// only the covered part of the parent's own interval is subtracted.
func selfTimes(spans []Span) map[int]int64 {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// covered returns the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(iv))
	for _, in := range iv {
		a, b := max(in[0], lo), min(in[1], hi)
		if a < b {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total int64
	for i := 0; i < len(clipped); {
		a, b := clipped[i][0], clipped[i][1]
		for i++; i < len(clipped) && clipped[i][0] <= b; i++ {
			b = max(b, clipped[i][1])
		}
		total += b - a
	}
	return total
}

// selfByName sums self time in milliseconds per span name over the spans
// keep accepts.
func selfByName(spans []Span, keep func(Span) bool) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		if keep == nil || keep(s) {
			out[s.Name] += float64(self[s.ID]) / 1e6
		}
	}
	return out
}
