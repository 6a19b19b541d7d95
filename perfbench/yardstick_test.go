package main

import "testing"

// Every reference slice must do the same work, or scaling by its time
// would scale by the work as well as by the machine's speed.
func TestYardstickSlicesRepeatTheirWork(t *testing.T) {
	y := newYardstick()
	y.slice()
	first := y.sink
	if first == 0 {
		t.Fatal("a slice did no work")
	}
	y.slice()
	if y.sink != 2*first {
		t.Errorf("second slice did %d units of work, first %d", y.sink-first, first)
	}
	if len(y.times) != 2 {
		t.Errorf("recorded %d slice times for 2 slices", len(y.times))
	}
}

// A lone slow slice met a burst the work beside it did not share; a run
// of slow slices is a slowdown it did.
func TestLocalFollowsRunsNotSpikes(t *testing.T) {
	y := &yardstick{times: []float64{99, 8, 8, 20, 8, 8, 12, 12, 12}}
	got := y.local(1)
	want := []float64{8, 8, 8, 8, 8, 12, 12, 12}
	if len(got) != len(want) {
		t.Fatalf("local gave %d references for %d slices", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reference %d = %v, want %v (all %v)", i, got[i], want[i], got)
		}
	}
}
