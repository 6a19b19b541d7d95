package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/mem"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/suite"
	"mmxdsp/internal/vm"
)

// The suite workload is the paper reproduction users run: core.RunAll
// over the 21 programs, serially, with checks on and the default
// dispatch, followed by the paper's tables. It never touches the server,
// either cache or the cluster, so it is the no-change workload for any
// serving change.

//go:embed suite.digest
var suiteGolden string

const (
	// suiteSetups is how many set-ups a run times (itself plus fresh
	// child processes); setup_s is their median.
	suiteSetups = 3
	// maxInstrs matches core.RunCompiled's default budget.
	maxInstrs = 1 << 31
)

func suiteOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Parallelism = 1
	return opt
}

// suiteOrder is the registry in a seeded order: the seed changes the
// order of a pass, never its work or its results.
func suiteOrder(seed int64) []core.Benchmark {
	all := suite.All()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all
}

// suiteSetup is one set-up as a fresh process pays it: registry build
// plus one untimed pass. It returns the time since process start, less
// the pass's reference slices, at the reference speed: scaled as the
// pass was.
func suiteSetup(order []core.Benchmark, y *yardstick) (float64, error) {
	if order == nil {
		order = suiteOrder(1)
	}
	p, err := untracedPass(order, y)
	if err != nil {
		return 0, err
	}
	raw := time.Since(startTime) - p.refTotal
	return raw.Seconds() * p.scaled / p.wall.Seconds(), nil
}

// startTime is taken while the process initialises, before main: the
// launch a set-up is measured from.
var startTime = time.Now()

// passResult is one serial pass.
type passResult struct {
	rs       core.ResultSet
	wall     time.Duration // the pass less its reference slices
	perProg  []float64     // ms from one program's retirement to the next
	scaled   float64       // wall in s at the reference speed
	perScale []float64     // perProg at the reference speed
	refTotal time.Duration // time spent in those slices and collections
	err      error         // programs that failed, if any
}

// failed reports whether the pass is wrong: a program failed or the
// results differ from the golden digest.
func (p *passResult) failed() bool {
	if p.err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", p.err)
		return true
	}
	return !digestOK(p.rs)
}

// digestOK compares a pass's results with the golden digest.
func digestOK(rs core.ResultSet) bool {
	if got := suiteDigest(rs); got != goldenDigest() {
		fmt.Fprintf(os.Stderr, "perfbench: suite digest %s, want %s (perfbench/suite.digest)\n", got, goldenDigest())
		return false
	}
	return true
}

// untracedPass is what a user runs: core.RunAll, then the tables. After
// each program retires, the Progress hook runs one reference slice and
// then collects the garbage, both left out of the pass's times. The
// collection starts every program on the same heap whatever the seeded
// order ran before it, so neither its time nor the process's peak RSS
// depends on the order. Each program's time is scaled by the slices
// around it (yardstick.local), the tables by the last.
func untracedPass(order []core.Benchmark, y *yardstick) (*passResult, error) {
	opt := suiteOptions()
	var (
		per      []float64
		refTotal time.Duration
	)
	mark := len(y.times)
	start := time.Now()
	last := start
	opt.Progress = func(core.RunStatus) {
		now := time.Now()
		per = append(per, ms(now.Sub(last)))
		y.slice()
		runtime.GC()
		last = time.Now()
		refTotal += last.Sub(now)
	}
	rs, err := core.RunAll(order, opt)
	renderTables(rs)
	wall := time.Since(start) - refTotal
	var runErr *core.RunError
	if err != nil && !errors.As(err, &runErr) {
		return nil, err
	}
	p := &passResult{rs: rs, wall: wall, perProg: per, refTotal: refTotal, err: err}
	refs := y.local(mark)
	tables := ms(wall)
	for i, v := range per {
		tables -= v
		p.perScale = append(p.perScale, atRef(v, refs[i]))
		p.scaled += p.perScale[i] / 1000
	}
	p.scaled += atRef(tables, refs[len(refs)-1]) / 1000
	return p, nil
}

// renderTables renders what mmxbench prints for the paper's evaluation.
func renderTables(rs core.ResultSet) string {
	return core.Table2(rs) + core.Table2CSV(rs) + core.Table3(rs) + core.Table3CSV(rs) +
		core.Fig1a(rs) + core.Fig1b(rs) + core.Fig2a(rs) + core.Fig2b(rs)
}

// suiteDigest pins what the reproduction says: Table 2/3 CSV plus each
// program's cycles, instructions, µops and memory references. It catches
// a change that shifts every dispatch mode the same way.
func suiteDigest(rs core.ResultSet) string {
	var b strings.Builder
	b.WriteString(core.Table2CSV(rs))
	b.WriteString(core.Table3CSV(rs))
	for _, name := range core.SortedNames(rs) {
		rep := rs[name].Report
		fmt.Fprintf(&b, "%s %d %d %d %d\n", name, rep.Cycles, rep.DynamicInstructions, rep.Uops, rep.MemoryReferences)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func goldenDigest() string { return strings.TrimSpace(suiteGolden) }

func runSuite(rc *runCtx) (*outcome, error) {
	// The passes, their reference slices and the set-up children run on
	// one CPU with one P (affinity.go), as the daemons do in serve.
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	if err := pinProcess(cpus[0]); err != nil {
		return nil, err
	}
	runtime.GOMAXPROCS(1)
	rc.prov.GOMAXPROCS["perfbench"] = 1
	rc.prov.CPUs = map[string][]int{"perfbench": cpus[:1]}
	order := suiteOrder(rc.seed)
	y := newYardstick()
	own, err := suiteSetup(order, y)
	if err != nil {
		return nil, err
	}
	setups := []float64{own}
	for i := 1; i < suiteSetups; i++ {
		d, err := childSetup()
		if err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	out := newOutcome()
	out.metrics["setup_s"] = median(setups)
	if rc.trace {
		return out, tracedSuite(rc, order, y, out)
	}

	// Every time below is at the reference speed.
	var walls, perProg, share []float64
	deadline := time.Now().Add(rc.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		p, err := untracedPass(order, y)
		if err != nil {
			return nil, err
		}
		walls = append(walls, p.scaled)
		perProg = append(perProg, p.perScale...)
		out.attempted += len(order)
		if p.failed() {
			out.failed += len(order)
		}
		share = append(share, 1000*p.scaled/float64(len(order)))
	}
	rc.prov.RefSliceMS = median(y.times)
	out.metrics["suite_wall_s"] = median(walls)
	out.metrics["cold_mean_ms"] = mean(perProg)
	out.metrics["campaign_cold_points_per_s"] = float64(len(order)) / median(walls)
	// The suite has no result cache to hit; its hit_* analogue is the
	// per-program share of a pass.
	out.metrics["hit_p50_ms"] = quantile(share, 0.5)
	out.metrics["hit_p90_ms"] = quantile(share, 0.9)
	out.metrics["success_ratio"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	out.metrics["peak_rss_mb"] = selfPeakRSSMiB()
	return out, nil
}

// childSetup times a set-up in a fresh copy of this process.
func childSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--setup-probe")
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	outp, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	sc := bufio.NewScanner(bytes.NewReader(outp))
	var last string
	for sc.Scan() {
		last = sc.Text()
	}
	return strconv.ParseFloat(strings.TrimSpace(last), 64)
}

func selfPeakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tracedSuite alternates untraced passes with traced ones. A traced pass
// redoes core.Run's steps through the layers' public functions with a
// span around each call; after it, differential runs of each program
// split the measured cpu.Run into vm, pentium and mem:
//
//	vm.exec_ms        = run with no observer and no hierarchy
//	pentium.retire_ms = run with the collector, no hierarchy, minus vm.exec_ms
//	mem.access_ms     = the pass's full run minus the collector-only run
func tracedSuite(rc *runCtx, order []core.Benchmark, y *yardstick, out *outcome) error {
	tr := rc.tr
	cfg := pentium.DefaultConfig()
	var untraced, traced []float64
	layers := map[string][]float64{}
	deadline := time.Now().Add(rc.seconds)
	for pass := 0; len(traced) < 2 || time.Now().Before(deadline); pass++ {
		p, err := untracedPass(order, y)
		if err != nil {
			return err
		}
		untraced = append(untraced, p.wall.Seconds())
		out.attempted += len(order)
		if p.failed() {
			out.failed += len(order)
		}

		req := "pass-" + strconv.Itoa(pass)
		tp, err := tracedPass(tr, req, order, cfg)
		if err != nil {
			return err
		}
		out.attempted += len(order)
		if !digestOK(tp.rs) {
			out.failed += len(order)
		}
		wall := tr.ms(tp.root)
		traced = append(traced, wall/1000)
		self := selfByName(tr.Spans(), func(s Span) bool { return s.Req == req })
		var functional, timing float64
		for i, b := range order {
			fn, tm, err := probeRuns(tr, req, tp.comp[i], cfg)
			if err != nil {
				return fmt.Errorf("probe %s: %w", b.Name(), err)
			}
			functional += fn
			timing += tm
		}
		fullRun := self["cpu.run"]
		for name, v := range map[string]float64{
			"suite.build_ms":    self["suite.build"],
			"vm.predecode_ms":   self["vm.predecode"],
			"vm.exec_ms":        functional,
			"pentium.retire_ms": timing - functional,
			"mem.access_ms":     fullRun - timing,
			"suite.check_ms":    self["suite.check"],
			"profile.report_ms": self["profile.report"],
			"core.tables_ms":    self["core.tables"],
		} {
			layers[name] = append(layers[name], v)
		}
		attributed := self["suite.build"] + self["vm.predecode"] + fullRun + self["suite.check"] +
			self["profile.report"] + self["core.tables"]
		layers["core.unattributed_ms"] = append(layers["core.unattributed_ms"], wall-attributed)
		if pass == 0 {
			counters(tp, out)
		}
	}
	for name, vs := range layers {
		out.metrics[name] = median(vs)
	}
	out.metrics["trace.overhead_pct"] = 100 * (median(traced) - median(untraced)) / median(untraced)
	return nil
}

// tracedPassResult is one traced pass: results, the compiled artifacts
// the probes rerun, the root span and the block-dispatch event split.
type tracedPassResult struct {
	rs        core.ResultSet
	comp      []*core.Compiled
	root      int
	fast, per uint64
}

// tracedPass performs core.Run's steps for every program, then renders
// the tables, with a span around each call into a layer.
func tracedPass(tr *Tracer, req string, order []core.Benchmark, cfg pentium.Config) (*tracedPassResult, error) {
	tp := &tracedPassResult{rs: make(core.ResultSet, len(order))}
	tp.root = tr.Begin("suite.pass", req, 0)
	for _, b := range order {
		prog := tr.Begin("suite.program", req, tp.root)
		sp := tr.Begin("suite.build", req, prog)
		p, err := b.Build()
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", b.Name(), err)
		}
		sp = tr.Begin("vm.predecode", req, prog)
		code := vm.Compile(p)
		tr.End(sp)
		tp.comp = append(tp.comp, &core.Compiled{Benchmark: b, Prog: p, Code: code})

		model := pentium.New(cfg)
		model.Bind(p)
		col := profile.NewCollector(p, model)
		cpu := vm.NewWithCode(code)
		cpu.Obs = col
		cpu.Hier = mem.NewHierarchy()
		sp = tr.Begin("cpu.run", req, prog)
		err = cpu.Run(maxInstrs)
		tr.End(sp)
		if err != nil {
			return nil, fmt.Errorf("run %s: %w", b.Name(), err)
		}
		if b.Check != nil {
			sp = tr.Begin("suite.check", req, prog)
			err = b.Check(cpu)
			tr.End(sp)
			if err != nil {
				return nil, fmt.Errorf("check %s: %w", b.Name(), err)
			}
		}
		sp = tr.Begin("profile.report", req, prog)
		rep := col.Report(b.Name())
		tr.End(sp)
		rep.CacheAccesses = cpu.Hier.Stats.Accesses
		rep.L1Misses = cpu.Hier.Stats.L1Misses
		rep.L2Misses = cpu.Hier.Stats.L2Misses
		fast, per := col.BlockStats()
		tp.fast += fast
		tp.per += per
		tp.rs[b.Name()] = &core.Result{Benchmark: b, Report: rep}
		tr.End(prog)
	}
	sp := tr.Begin("core.tables", req, tp.root)
	renderTables(tp.rs)
	tr.End(sp)
	tr.End(tp.root)
	return tp, nil
}

// probeRuns times the two differential runs of one compiled program, as
// spans outside the pass: no observer and no hierarchy (functional VM
// only), then the collector without a hierarchy. It returns both in ms.
func probeRuns(tr *Tracer, req string, comp *core.Compiled, cfg pentium.Config) (float64, float64, error) {
	root := tr.Begin("suite.probe", req+"-probe", 0)
	defer tr.End(root)
	cpu := vm.NewWithCode(comp.Code)
	sp := tr.Begin("probe.functional", req+"-probe", root)
	err := cpu.Run(maxInstrs)
	tr.End(sp)
	if err != nil {
		return 0, 0, err
	}
	functional := tr.ms(sp)

	model := pentium.New(cfg)
	model.Bind(comp.Prog)
	col := profile.NewCollector(comp.Prog, model)
	cpu = vm.NewWithCode(comp.Code)
	cpu.Obs = col
	sp = tr.Begin("probe.timing", req+"-probe", root)
	err = cpu.Run(maxInstrs)
	tr.End(sp)
	if err != nil {
		return 0, 0, err
	}
	return functional, tr.ms(sp), nil
}

// counters reports the exact work counters of one pass; they must repeat
// exactly across runs, proving the same work was timed.
func counters(tp *tracedPassResult, out *outcome) {
	var instrs, cycles, accesses, l1 uint64
	for _, r := range tp.rs {
		instrs += r.Report.DynamicInstructions
		cycles += r.Report.Cycles
		accesses += r.Report.CacheAccesses
		l1 += r.Report.L1Misses
	}
	out.metrics["vm.instrs"] = float64(instrs)
	out.metrics["pentium.cycles"] = float64(cycles)
	out.metrics["mem.accesses"] = float64(accesses)
	out.metrics["mem.l1_misses"] = float64(l1)
	out.metrics["vm.block_fast_pct"] = 100 * ratio(float64(tp.fast), float64(tp.fast+tp.per))
}
