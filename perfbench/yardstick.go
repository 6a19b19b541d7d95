package main

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"math/rand"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The machine this benchmark was built on is a 2-vCPU share of a large
// host, and its speed for this simulator moves by up to 2× within
// minutes as the host's other tenants come and go: back-to-back serial
// passes of the same suite took 1.5 to 3.3 s. A median over a run
// cannot hide a slowdown that lasts the whole run, so every time the
// benchmark reports is scaled to a fixed reference speed. Beside the
// measured work it runs reference slices — a fixed mix of standard
// library work (JSON encode and decode, flate compression, regular
// expressions, sorting, a map) that touches none of the repository's
// code — and reports
//
//	raw time × refNominalMS / (time of the reference slices run beside it)
//
// where each workload takes the slices' median over the stretch of time
// its unit of work spans (README.md, "Times at the reference speed"). On
// that machine the slices' time tracked the simulator's (correlation 0.94
// over a few seconds, slope 1.06 in log time) where a tight ALU loop, a
// pointer chase, a toy interpreter and a high-ILP loop did not. Because the slices run
// no repository code, a change to the repository moves a scaled time
// exactly as much as the raw one.

// refNominalMS is the reference speed: a slice's median time on the
// machine the benchmark was built on, an Intel Xeon (Sapphire Rapids)
// VM with 2 vCPUs, when it ran at its usual speed.
const refNominalMS = 8.0

// atRef scales a raw time measured while reference slices took refMS
// each to the reference speed.
func atRef(raw, refMS float64) float64 { return raw * refNominalMS / refMS }

// refRecord is one record of the slices' JSON work.
type refRecord struct {
	Name   string
	Vals   []int
	Nested map[string]float64
}

// refInput is the slices' fixed input, the same in every run and every
// process.
var refInput = sync.OnceValue(func() (in struct {
	records []refRecord
	text    []byte
	ints    []int
}) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		r := refRecord{Name: "rec" + strconv.Itoa(i), Nested: map[string]float64{}}
		for j := 0; j < 10; j++ {
			r.Vals = append(r.Vals, rng.Intn(100000))
			r.Nested["k"+strconv.Itoa(j)] = rng.Float64()
		}
		in.records = append(in.records, r)
	}
	words := []string{"alpha", "beta@gamma.com", "x12345y", "delta", "epsilon", "zeta", "eta@theta.com", "iota"}
	for len(in.text) < 64<<10 {
		in.text = append(in.text, words[rng.Intn(len(words))]...)
		in.text = append(in.text, ' ')
	}
	for i := 0; i < 20000; i++ {
		in.ints = append(in.ints, rng.Int())
	}
	return in
})

var refPattern = regexp.MustCompile(`(\w+)@(\w+)\.com|x[0-9]{3,}y`)

// yardstick runs reference slices and keeps their times. It is not safe
// for concurrent use.
type yardstick struct {
	fw    *flate.Writer
	buf   bytes.Buffer
	ints  []int
	times []float64 // ms per slice, in the order run
	sink  int
}

func newYardstick() *yardstick {
	fw, err := flate.NewWriter(nil, 5)
	if err != nil {
		panic(err) // level 5 is valid
	}
	return &yardstick{fw: fw}
}

// slice runs one reference slice and returns its time in ms. It first
// collects the garbage, untimed, so that no slice meets a collection
// of the garbage the measured work left: its allocations stay below the
// smallest heap that triggers one.
func (y *yardstick) slice() float64 {
	in := refInput()
	runtime.GC()
	t := time.Now()
	data, err := json.Marshal(in.records)
	if err != nil {
		panic(err) // fixed records of strings, ints and floats always marshal
	}
	var back []refRecord
	if err := json.Unmarshal(data, &back); err != nil {
		panic(err)
	}
	y.buf.Reset()
	y.fw.Reset(&y.buf)
	_, _ = y.fw.Write(in.text) // writes to a bytes.Buffer cannot fail
	_ = y.fw.Close()
	n := len(refPattern.FindAllIndex(in.text[:16<<10], -1))
	y.ints = append(y.ints[:0], in.ints...)
	sort.Ints(y.ints)
	m := make(map[int]int, 997)
	for _, v := range y.ints[:4000] {
		m[v%997] += v
	}
	y.sink += n + len(m) + y.buf.Len() + len(back)
	d := ms(time.Since(t))
	y.times = append(y.times, d)
	return d
}

// local returns, for each slice run since mark, the median of it and
// its two neighbours: the reference for the work run just before it. A
// lone slow slice met a burst the work beside it did not; a run of slow
// slices is a slowdown the work shared, though it may cover only part of
// a pass.
func (y *yardstick) local(mark int) []float64 {
	ts := y.times[mark:]
	refs := make([]float64, len(ts))
	for i := range ts {
		refs[i] = median(ts[max(0, i-1):min(len(ts), i+2)])
	}
	return refs
}

// since returns the median time in ms of the slices run since mark, a
// length of times taken earlier. A median, so that the odd slice that
// meets a garbage collection or a daemon's background work does not
// move the scale.
func (y *yardstick) since(mark int) float64 { return median(y.times[mark:]) }
