package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mmxdsp/internal/pentium"
)

// The exact counters prove two runs timed the same work, so they must
// repeat exactly whatever the timing.

func TestSuiteCountersRepeatAcrossOrders(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two traced suite passes")
	}
	var got []map[string]float64
	for _, seed := range []int64{1, 2} {
		tp, err := tracedPass(newTracer(), "pass", suiteOrder(seed), pentium.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if !digestOK(tp.rs) {
			t.Fatalf("seed %d: traced pass does not match perfbench/suite.digest", seed)
		}
		out := newOutcome()
		counters(tp, out)
		got = append(got, out.metrics)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("counters differ between passes: %v vs %v", got[0], got[1])
	}
	for _, name := range []string{"vm.instrs", "pentium.cycles", "mem.accesses"} {
		if got[0][name] == 0 {
			t.Errorf("%s is 0", name)
		}
	}
}

func TestCampaignCountersRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("starts three daemons twice")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/mmxd", "./cmd/mmxfleet")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build daemons: %v\n%s", err, out)
	}
	exact := []string{"vm.instrs", "pentium.cycles", "mem.l1_misses", "server.compile_miss_ratio", "cluster.rerun_cached_ratio"}
	var got []map[string]float64
	for i := 0; i < 2; i++ {
		rc := &runCtx{workload: "campaign", seed: 5, seconds: time.Second, trace: true,
			binDir: bin, outDir: t.TempDir(), tr: newTracer()}
		rc.prov = newProvenance(rc)
		out, err := runCampaign(rc)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed != 0 {
			t.Fatalf("run %d: %d of %d operations failed", i, out.failed, out.attempted)
		}
		m := map[string]float64{}
		for _, name := range exact {
			m[name] = out.metrics[name]
		}
		got = append(got, m)
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("counters differ between runs: %v vs %v", got[0], got[1])
	}
	if got[0]["server.compile_miss_ratio"] == 0 || got[0]["vm.instrs"] == 0 {
		t.Errorf("counters not measured: %v", got[0])
	}
}

// BENCHMARK.json must declare exactly the metrics the benchmark prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		var a, b []string
		for _, d := range declared {
			a = append(a, d.Name+" "+d.Unit)
		}
		for _, d := range defs {
			b = append(b, d.name+" "+d.unit)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s in BENCHMARK.json:\n%s\nprinted by perfbench:\n%s", kind, strings.Join(a, "\n"), strings.Join(b, "\n"))
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
