// Command perfbench is the repository's benchmark. It runs one of three
// workloads against the system built from this checkout and prints, as
// the last line of its standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics a user sees; with
// --trace 1 a separate traced run attributes each workload's time to the
// repository's layers by timing the benchmark's own calls into their
// public functions. See README.md in this directory for every metric, the
// workload it belongs to and the end-to-end metric each layer should move.
//
// Run it from the repository root through the launcher, which builds the
// benchmark and the mmxd/mmxfleet daemons from source first:
//
//	bash perfbench/run.sh --workload suite --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is every --trace 0 metric. Each workload reports all of them;
// README.md gives each one's definition per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"success_ratio", "ratio"},
	{"suite_wall_s", "s"},
	{"hit_p50_ms", "ms"},
	{"hit_p90_ms", "ms"},
	{"cold_mean_ms", "ms"},
	{"campaign_cold_points_per_s", "points/s"},
}

// perLayer is every --trace 1 metric. A layer a workload never enters
// reads 0 there: that workload is the layer's no-change workload.
var perLayer = []metricDef{
	{"suite.build_ms", "ms"},
	{"vm.predecode_ms", "ms"},
	{"vm.exec_ms", "ms"},
	{"pentium.retire_ms", "ms"},
	{"mem.access_ms", "ms"},
	{"suite.check_ms", "ms"},
	{"profile.report_ms", "ms"},
	{"core.tables_ms", "ms"},
	{"core.unattributed_ms", "ms"},
	{"vm.instrs", "count"},
	{"pentium.cycles", "count"},
	{"mem.accesses", "count"},
	{"mem.l1_misses", "count"},
	{"vm.block_fast_pct", "%"},
	{"server.parse_us", "us"},
	{"server.compile_ms", "ms"},
	{"core.run_ms", "ms"},
	{"server.marshal_ms", "ms"},
	{"server.result_lookup_us", "us"},
	{"server.residual_ms", "ms"},
	{"server.hit_residual_us", "us"},
	{"server.hit_p99_ms", "ms"},
	{"server.result_hit_ratio", "ratio"},
	{"server.compile_hit_ratio", "ratio"},
	{"server.rejected_429", "count"},
	{"server.runs_failed", "count"},
	{"campaign.parse_ms", "ms"},
	{"server.compile_miss_ratio", "ratio"},
	{"cluster.point_wall_ms_p50", "ms"},
	{"server.sim_wall_ms_p50", "ms"},
	{"campaign.point_overhead_ms", "ms"},
	{"cluster.affinity_ratio", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.shed", "count"},
	{"cluster.rerun_ms", "ms"},
	{"cluster.rerun_cached_ratio", "ratio"},
	{"trace.overhead_pct", "%"},
}

// Load shape. Every request comes from the benchmark's main goroutine
// (closed loop), so the generator never competes with the daemons for
// more CPUs than exist. It holds one keep-alive connection to the system
// at a time, and one to the echo reference its hit latencies are scaled
// by (echo.go).
const (
	clientGoroutines = 1
	clientConns      = 2
)

// runCtx is what every workload receives.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	binDir   string // holds mmxd and mmxfleet
	outDir   string // daemon logs and span dumps
	prov     *provenance
	tr       *Tracer // nil unless --trace 1
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

var workloads = map[string]func(*runCtx) (*outcome, error){
	"suite":    runSuite,
	"serve":    runServe,
	"campaign": runCampaign,
}

func main() {
	var (
		workload   = flag.String("workload", "", "suite, serve or campaign")
		seed       = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds    = flag.Int("seconds", 20, "length of the measured window")
		trace      = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		binDir     = flag.String("bin", ".bench_build/bin", "directory holding the mmxd and mmxfleet binaries")
		outDir     = flag.String("out", ".bench_build/perfbench", "directory for daemon logs and span dumps")
		setupProbe = flag.Bool("setup-probe", false, "internal: time one suite set-up in a fresh process and exit")
		echo       = flag.Bool("echo", false, "internal: serve the hit latencies' echo reference on --addr")
		addr       = flag.String("addr", "", "internal: the echo reference's loopback address")
	)
	flag.Parse()
	if *echo {
		fatal(serveEcho(*addr))
	}
	if *setupProbe {
		d, err := suiteSetup(nil, newYardstick())
		if err != nil {
			fatal(err)
		}
		fmt.Println(d)
		return
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload suite|serve|campaign --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if n := runtime.NumCPU(); clientGoroutines > n || clientConns > n {
		fatal(fmt.Errorf("load generator needs %d goroutines and %d connections but only %d CPUs exist",
			clientGoroutines, clientConns, n))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	rc := &runCtx{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, binDir: *binDir, outDir: *outDir,
	}
	rc.prov = newProvenance(rc)
	if rc.trace {
		rc.tr = newTracer()
	}
	out, err := run(rc)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", *workload, err))
	}
	defs := endToEnd
	if rc.trace {
		defs = perLayer
		if err := writeSpans(rc); err != nil {
			fatal(err)
		}
	}
	res := result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: out.metrics[d.name], Unit: d.unit}
	}
	if missing := missingMetrics(out, defs); !rc.trace && len(missing) > 0 {
		fatal(fmt.Errorf("%s did not measure %s", *workload, strings.Join(missing, ", ")))
	}
	provLine, err := json.Marshal(map[string]any{"provenance": rc.prov})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(provLine))
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// missingMetrics lists the metrics the workload did not set. Every
// end-to-end metric must be measured; a per-layer one is absent where
// its layer did not run.
func missingMetrics(out *outcome, defs []metricDef) []string {
	var missing []string
	for _, d := range defs {
		if _, ok := out.metrics[d.name]; !ok {
			missing = append(missing, d.name)
		}
	}
	return missing
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// provenance identifies the measured tree and the load shape.
type provenance struct {
	Workload         string         `json:"workload"`
	Seed             int64          `json:"seed"`
	Seconds          int            `json:"seconds"`
	Trace            bool           `json:"trace"`
	Commit           string         `json:"commit"`
	Dirty            *bool          `json:"dirty"`
	SourceSHA256     string         `json:"source_sha256"`
	GoVersion        string         `json:"go_version"`
	NumCPU           int            `json:"nproc"`
	GOMAXPROCS       map[string]int `json:"gomaxprocs"`
	ClientGoroutines int            `json:"client_goroutines"`
	ClientConns      int            `json:"client_conns"`
	Daemons          []daemonInfo   `json:"daemons,omitempty"`
	// CPUs is the CPU set of each process the workload confined to one.
	CPUs map[string][]int `json:"cpus,omitempty"`
	// RefSliceMS is the median reference slice time of the run: how fast
	// the machine was, against refNominalMS.
	RefSliceMS float64 `json:"ref_slice_ms"`
	// EchoRTTMS is the median echo round trip of the run, against
	// echoNominalP50MS; serve and campaign only.
	EchoRTTMS float64 `json:"echo_rtt_ms,omitempty"`
}

type daemonInfo struct {
	Name       string   `json:"name"`
	Args       []string `json:"args"`
	GOMAXPROCS int      `json:"gomaxprocs"`
}

func newProvenance(rc *runCtx) *provenance {
	p := &provenance{
		Workload: rc.workload, Seed: rc.seed, Seconds: int(rc.seconds / time.Second), Trace: rc.trace,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS:       map[string]int{},
		ClientGoroutines: clientGoroutines, ClientConns: clientConns,
	}
	p.Commit, p.Dirty = gitState()
	p.SourceSHA256 = sourceDigest(".")
	return p
}

// writeSpans dumps the traced run's spans with the run's provenance.
func writeSpans(rc *runCtx) error {
	path := filepath.Join(rc.outDir, fmt.Sprintf("spans-%s-seed%d.json", rc.workload, rc.seed))
	data, err := json.Marshal(map[string]any{"provenance": rc.prov, "spans": rc.tr.Spans()})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	return nil
}
