package main

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
)

func freshRounds(seed int64, rounds int) [][]byte {
	gen := newFreshGen(seed, suite.Names())
	var out [][]byte
	for r := 0; r < rounds; r++ {
		for _, f := range gen.next() {
			out = append(out, f.body())
		}
	}
	return out
}

func grids(seed int64, n int) [][]byte {
	gen := newGridGen(seed, suite.Names())
	out := [][]byte{gen.warmSpec()}
	for i := 0; i < n; i++ {
		out = append(out, gen.nextSpec())
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if !reflect.DeepEqual(freshRounds(7, 5), freshRounds(7, 5)) {
		t.Error("fresh sequence differs between two generators with one seed")
	}
	if !reflect.DeepEqual(grids(7, 5), grids(7, 5)) {
		t.Error("campaign grids differ between two generators with one seed")
	}
	names := func(seed int64) []string {
		var out []string
		for _, b := range suiteOrder(seed) {
			out = append(out, b.Name())
		}
		return out
	}
	if !reflect.DeepEqual(names(7), names(7)) {
		t.Error("suite order differs between two calls with one seed")
	}
}

func TestOtherSeedOtherPairsSamePrograms(t *testing.T) {
	a, b := freshRounds(1, 3), freshRounds(2, 3)
	if reflect.DeepEqual(a, b) {
		t.Fatal("seeds 1 and 2 gave the same fresh sequence")
	}
	if got, want := programsOf(t, a), programsOf(t, b); !reflect.DeepEqual(got, want) {
		t.Errorf("program multisets differ: %v vs %v", got, want)
	}
	if bytes.Equal(grids(1, 1)[1], grids(2, 1)[1]) {
		t.Error("seeds 1 and 2 gave the same campaign grid")
	}
}

// programsOf returns the sorted program of every request, after checking
// each body is one the daemon accepts.
func programsOf(t *testing.T, bodies [][]byte) []string {
	t.Helper()
	var out []string
	for _, b := range bodies {
		req, err := server.ParseRunRequest(b)
		if err != nil {
			t.Fatalf("generated body %s rejected: %v", b, err)
		}
		out = append(out, req.Program)
	}
	sort.Strings(out)
	return out
}

func TestFreshPairsNeverRepeat(t *testing.T) {
	seen := map[string]bool{string(hitBody("fft.c")): true}
	for _, p := range suite.Names() {
		seen[string(hitBody(p))] = true
	}
	for _, b := range freshRounds(3, maxFreshRounds) {
		req, err := server.ParseRunRequest(b)
		if err != nil {
			t.Fatalf("generated body %s rejected: %v", b, err)
		}
		key := req.ResultKey()
		if seen[key] {
			t.Fatalf("fresh request %s repeats an earlier pair", b)
		}
		seen[key] = true
	}
	if gen := newFreshGen(3, suite.Names()); func() bool {
		for r := 0; r < maxFreshRounds; r++ {
			gen.next()
		}
		return gen.next() != nil
	}() {
		t.Error("generator kept going past maxFreshRounds")
	}
}

func TestGridPointsNeverRepeat(t *testing.T) {
	seen := map[string]bool{}
	for i, spec := range grids(4, 40) {
		_, points, err := campaign.ParseSpec(spec, campaign.DefaultLimits())
		if err != nil {
			t.Fatalf("grid %d %s rejected: %v", i, spec, err)
		}
		for _, p := range points {
			req, err := server.ParseRunRequest(p.Body)
			if err != nil {
				t.Fatal(err)
			}
			if seen[req.ResultKey()] {
				t.Fatalf("grid %d repeats point %s", i, p.Body)
			}
			seen[req.ResultKey()] = true
		}
	}
}
