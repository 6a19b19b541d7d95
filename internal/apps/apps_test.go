package apps

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"mmxdsp/internal/core"
	"mmxdsp/internal/vm"
)

// runPair runs a family's .c and .mmx versions and returns the comparison.
func runPair(t *testing.T, benches []core.Benchmark) core.Ratios {
	t.Helper()
	var base, mmx *core.Result
	for _, bm := range benches {
		r, err := core.Run(bm, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		switch bm.Version {
		case core.VersionC:
			base = r
		case core.VersionMMX:
			mmx = r
		}
	}
	if base == nil || mmx == nil {
		t.Fatal("missing versions")
	}
	return core.Compare(base.Report, mmx.Report)
}

func TestImageShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 640x480 workload")
	}
	r := runPair(t, Image())
	t.Logf("image ratios: %+v", r)
	// Paper: speedup 5.50, dynamic 9.92, memrefs 7.12.
	if r.Speedup < 3.5 || r.Speedup > 9 {
		t.Errorf("image speedup = %.2f, want ~5.5 (band 3.5..9)", r.Speedup)
	}
	if r.Dynamic < 4 {
		t.Errorf("image dynamic ratio = %.2f, want large (paper 9.92)", r.Dynamic)
	}
	if r.MemRefs < 3 {
		t.Errorf("image memref ratio = %.2f, want large (paper 7.12)", r.MemRefs)
	}
}

func TestRadarShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	r := runPair(t, Radar())
	t.Logf("radar ratios: %+v", r)
	// Paper: speedup 1.21 — modest, eaten by call overhead and formatting.
	if r.Speedup < 0.95 || r.Speedup > 1.9 {
		t.Errorf("radar speedup = %.2f, want ~1.21 (band 0.95..1.9)", r.Speedup)
	}
}

func TestJPEGShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	r := runPair(t, JPEG())
	t.Logf("jpeg ratios: %+v", r)
	// Paper: speedup 0.49 — the MMX version LOSES.
	if r.Speedup >= 1.0 {
		t.Errorf("jpeg speedup = %.2f, want < 1 (paper 0.49: scalar wins)", r.Speedup)
	}
	if r.Speedup < 0.3 {
		t.Errorf("jpeg speedup = %.2f, implausibly low", r.Speedup)
	}
}

func TestG722Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	r := runPair(t, G722())
	t.Logf("g722 ratios: %+v", r)
	// Paper: speedup 0.77 — the MMX version loses.
	if r.Speedup >= 1.0 {
		t.Errorf("g722 speedup = %.2f, want < 1 (paper 0.77: scalar wins)", r.Speedup)
	}
	if r.Speedup < 0.5 {
		t.Errorf("g722 speedup = %.2f, implausibly low", r.Speedup)
	}
}

func TestAppRegistry(t *testing.T) {
	names := map[string]bool{}
	for _, bm := range Benchmarks() {
		names[bm.Name()] = true
		if bm.Kind != core.KindApplication {
			t.Errorf("%s kind = %q", bm.Name(), bm.Kind)
		}
	}
	for _, want := range []string{"image.c", "image.mmx", "radar.c", "radar.mmx",
		"jpeg.c", "jpeg.mmx", "g722.c", "g722.mmx"} {
		if !names[want] {
			t.Errorf("registry missing %s", want)
		}
	}
}

func TestJPEG2DVariantValidatesAndBeats1D(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	var oneD, twoD *core.Result
	for _, bm := range JPEG() {
		if bm.Version == core.VersionMMX {
			r, err := core.Run(bm, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			oneD = r
		}
	}
	r, err := core.Run(JPEGMMX2D(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	twoD = r
	// Same bit stream (validated in Check), far fewer calls and cycles:
	// the paper's "2-D DCT in the library" recommendation quantified.
	if twoD.Report.Calls >= oneD.Report.Calls {
		t.Errorf("2-D calls %d >= 1-D calls %d", twoD.Report.Calls, oneD.Report.Calls)
	}
	gain := float64(oneD.Report.Cycles) / float64(twoD.Report.Cycles)
	t.Logf("fused 2-D DCT: %d -> %d cycles (%.2fx), calls %d -> %d",
		oneD.Report.Cycles, twoD.Report.Cycles, gain, oneD.Report.Calls, twoD.Report.Calls)
	if gain < 1.1 {
		t.Errorf("fused 2-D DCT gain %.2f, want >= 1.1", gain)
	}
}

// TestNarrativeMetrics pins the paper's §4.2 mechanism claims: the MMX
// applications make many more function calls, and the losing applications
// execute MORE dynamic instructions than their C versions.
func TestNarrativeMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload")
	}
	run := func(name string, benches []core.Benchmark) (c, m *core.Result) {
		t.Helper()
		for _, bm := range benches {
			r, err := core.Run(bm, core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if bm.Version == core.VersionC {
				c = r
			} else {
				m = r
			}
		}
		return c, m
	}

	rc, rm := run("radar", Radar())
	callRatio := float64(rm.Report.Calls) / float64(rc.Report.Calls)
	t.Logf("radar calls: %d -> %d (%.1fx)", rc.Report.Calls, rm.Report.Calls, callRatio)
	if callRatio < 5 {
		t.Errorf("radar.mmx call ratio %.1f, want >> 1 (paper: 27x)", callRatio)
	}

	jc, jm := run("jpeg", JPEG())
	if jm.Report.DynamicInstructions <= jc.Report.DynamicInstructions {
		t.Errorf("jpeg.mmx dynamic %d <= jpeg.c %d; paper's anomaly missing",
			jm.Report.DynamicInstructions, jc.Report.DynamicInstructions)
	}
	if jm.Report.Calls <= jc.Report.Calls {
		t.Errorf("jpeg.mmx calls %d <= jpeg.c %d", jm.Report.Calls, jc.Report.Calls)
	}

	gc, gm := run("g722", G722())
	if gm.Report.DynamicInstructions <= gc.Report.DynamicInstructions {
		t.Errorf("g722.mmx dynamic %d <= g722.c %d; paper's anomaly missing",
			gm.Report.DynamicInstructions, gc.Report.DynamicInstructions)
	}
	// Both g722 versions are call-heavy, sample at a time.
	if gc.Report.CallRetCycleShare() < 5 || gm.Report.CallRetCycleShare() < 5 {
		t.Errorf("g722 call/ret shares %.1f%% / %.1f%%, want substantial",
			gc.Report.CallRetCycleShare(), gm.Report.CallRetCycleShare())
	}
}

// TestSharedWorkloadsStayPristine guards the once-per-process workload
// memos: every build and check reads the same buffers, so a build or check
// that wrote into one would corrupt every later run. It fingerprints each
// memoized buffer, builds every program that reads them (the jpeg2d
// variant shares jpeg.mmx's answer) twice concurrently, runs them all
// twice, four at a time with checks on, and requires the buffers and the
// reports to come out unchanged.
func TestSharedWorkloadsStayPristine(t *testing.T) {
	shared := map[string]func() any{
		"imageInput":      func() any { return imageInput() },
		"imageExpected":   func() any { return imageExpected() },
		"jpegInput":       func() any { return jpegInput() },
		"jpegExpectedC":   func() any { return jpegExpectedC() },
		"jpegExpectedMMX": func() any { return jpegExpectedMMX() },
		"g722Input":       func() any { return g722Input() },
	}
	benches := append(Benchmarks(), JPEGMMX2D())
	fingerprint := func() map[string][32]byte {
		out := make(map[string][32]byte, len(shared))
		for name, get := range shared {
			out[name] = sha256.Sum256(fmt.Appendf(nil, "%v", get()))
		}
		return out
	}
	before := fingerprint()

	// Under the race detector, a build that writes anywhere in a shared
	// array, even past its length, races with its concurrent twin.
	var wg sync.WaitGroup
	for _, b := range benches {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.Build(); err != nil {
					t.Errorf("%s: %v", b.Name(), err)
				}
			}()
		}
	}
	wg.Wait()

	var first map[string]string
	for pass := 0; pass < 2; pass++ {
		rs, err := core.RunAll(benches, core.Options{Parallelism: 4})
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		for name, sum := range fingerprint() {
			if sum != before[name] {
				t.Errorf("pass %d: shared %s changed", pass, name)
			}
		}
		reports := make(map[string]string, len(rs))
		for name, res := range rs {
			data, err := json.Marshal(res.Report)
			if err != nil {
				t.Fatal(err)
			}
			reports[name] = string(data)
		}
		if first == nil {
			first = reports
			continue
		}
		for name, rep := range reports {
			if rep != first[name] {
				t.Errorf("%s: report differs between passes", name)
			}
		}
	}
}

// TestCheckErrorsNameFirstDifferingByte plants the reference answer in a
// fresh machine's output buffer, flips one byte, and requires the image
// and jpeg checks to pass on the exact answer and to name the flipped
// index otherwise.
func TestCheckErrorsNameFirstDifferingByte(t *testing.T) {
	const flip = 12345
	cases := []struct {
		bench core.Benchmark
		sym   string
		want  []byte
		err   string
	}{
		{Image()[1], "out", imageExpected(),
			fmt.Sprintf("image.mmx: byte %d = %d, want %d", flip, imageExpected()[flip]^1, imageExpected()[flip])},
		{JPEG()[0], "stream", jpegExpectedC(),
			fmt.Sprintf("jpeg.c: stream[%d] = %#x, want %#x", flip, jpegExpectedC()[flip]^1, jpegExpectedC()[flip])},
	}
	for _, tc := range cases {
		prog, err := tc.bench.Build()
		if err != nil {
			t.Fatal(err)
		}
		cpu := vm.New(prog)
		base := prog.Addr(tc.sym)
		if tc.sym == "stream" && !cpu.Mem.StoreU32(prog.Addr("spos"), base+uint32(len(tc.want))) {
			t.Fatal("cannot set the stream position")
		}
		got := append([]byte(nil), tc.want...)
		if !cpu.Mem.WriteBytes(base, got) {
			t.Fatalf("cannot plant %s", tc.sym)
		}
		if err := tc.bench.Check(cpu); err != nil {
			t.Errorf("exact answer rejected: %v", err)
		}
		got[flip] ^= 1
		cpu.Mem.WriteBytes(base, got)
		if err := tc.bench.Check(cpu); err == nil || err.Error() != tc.err {
			t.Errorf("flipped byte %d: error %v, want %q", flip, err, tc.err)
		}
	}
}
