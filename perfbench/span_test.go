package main

import (
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		// Two overlapping children cover [10, 40): 30, not 20+20.
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 40},
		// A child nested in a child counts against its own parent only.
		{ID: 4, Parent: 1, Name: "c", Start: 50, End: 80},
		{ID: 5, Parent: 4, Name: "d", Start: 55, End: 65},
		// A child sticking out of its parent only covers the overlap.
		{ID: 6, Parent: 1, Name: "e", Start: 90, End: 120},
		// A child contained in a sibling's interval adds nothing.
		{ID: 7, Parent: 1, Name: "f", Start: 12, End: 18},
	}
	want := map[int]int64{1: 100 - 30 - 30 - 10, 2: 20, 3: 20, 4: 30 - 10, 5: 10, 6: 30, 7: 6}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("span %d self = %d, want %d", id, got[id], w)
		}
	}
}

func TestSelfByNameSumsAcrossSpans(t *testing.T) {
	spans := []Span{
		{ID: 1, Req: "x", Name: "pass", Start: 0, End: 10e6},
		{ID: 2, Req: "x", Parent: 1, Name: "run", Start: 1e6, End: 4e6},
		{ID: 3, Req: "x", Parent: 1, Name: "run", Start: 5e6, End: 6e6},
		{ID: 4, Req: "y", Name: "run", Start: 0, End: 7e6},
	}
	got := selfByName(spans, func(s Span) bool { return s.Req == "x" })
	if got["run"] != 4 || got["pass"] != 6 {
		t.Errorf("selfByName = %v, want run 4 ms and pass 6 ms", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Begin("x", "r", 0)
	tr.End(id)
	if id != 0 || tr.Spans() != nil {
		t.Errorf("nil tracer returned id %d and spans %v", id, tr.Spans())
	}
}
