package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"mmxdsp/internal/core"
	"mmxdsp/internal/pentium"
	"mmxdsp/internal/profile"
	"mmxdsp/internal/server"
	"mmxdsp/internal/suite"
)

// The serve workload drives one mmxd at default flags apart from its
// scheduler size, from one keep-alive caller, in two closed-loop phases
// that take turns, never running concurrently:
//
//   - fresh: a seeded, never-repeated sequence of (program, config) pairs
//     with checks on. Each pair misses both caches, so it pays admission,
//     compile, simulation, check, marshal and a result-cache fill.
//   - hit: the 21 programs at the default config, filled during set-up,
//     so every timed request is a result-cache hit: HTTP, parse and the
//     cache read, with no simulation.

const (
	serveSetups = 3
	// freshShare is the part of the measured window given to fresh
	// rounds; the hit blocks between them get the rest.
	freshShare = 0.7
	// checkSample is how many fresh responses are re-run in process and
	// compared byte for byte after the window.
	checkSample = 4
	// lookupReps is how many back-to-back result-cache lookups one timed
	// sample of server.result_lookup_us averages over.
	lookupReps = 200
)

// servedReport is the part of a /run response the benchmark checks.
type servedReport struct {
	Blocks core.BlockStats `json:"blocks"`
	Report json.RawMessage `json:"report"`
}

func runServe(rc *runCtx) (*outcome, error) {
	// The benchmark, mmxd and the echo process share one CPU, one P
	// each (affinity.go): the caller waits while mmxd works, and the
	// reference slices run on the CPU the simulation ran on.
	runtime.GOMAXPROCS(1)
	rc.prov.GOMAXPROCS["perfbench"] = 1
	const daemonProcs = 1
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	if err := pinProcess(cpus[0]); err != nil {
		return nil, err
	}
	rc.prov.CPUs = map[string][]int{"perfbench": cpus[:1], "mmxd": cpus[:1], "echo": cpus[:1]}
	programs := suite.Names()
	hc := newHTTPClient()
	out := newOutcome()

	var (
		setups []float64
		d      *daemon
		fills  map[string][]byte
	)
	y := newYardstick()
	defer func() { d.stop() }()
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(rc, hc, "mmxd", "mmxd", daemonProcs); err != nil {
			return nil, err
		}
		mark := len(y.times)
		var inSlices time.Duration
		if fills, inSlices, err = fillHits(hc, d.url, programs, y); err != nil {
			return nil, err
		}
		raw := (time.Since(t0) - inSlices).Seconds()
		setups = append(setups, atRef(raw, y.since(mark)))
	}
	rc.prov.GOMAXPROCS["mmxd"] = daemonProcs
	rc.prov.Daemons = []daemonInfo{d.info}
	out.metrics["setup_s"] = median(setups)

	before, err := hc.scrape(d.url)
	if err != nil {
		return nil, err
	}
	// Only the end-to-end run scales its times; a traced run reports raw
	// layer times and runs no references.
	var echo *echoer
	defer func() { echo.stop() }()
	if rc.trace {
		y = nil
	} else if echo, err = startEcho(rc); err != nil {
		return nil, err
	}
	fresh, hit, err := serveWindow(rc, hc, d.url, programs, fills, y, echo, out)
	if err != nil {
		return nil, err
	}
	after, err := hc.scrape(d.url)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	d.stop()
	d = nil
	if echo != nil {
		rc.prov.EchoRTTMS = median(echo.rtts)
	}
	echo.stop()
	echo = nil

	// Checks after the window: a seeded sample of fresh responses against
	// an in-process core.RunCompiled of the same parameters.
	for _, i := range fresh.sample {
		if err := checkFresh(fresh.reqs[i], fresh.bodies[i]); err != nil {
			out.failed++
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
	}

	if rc.trace {
		return out, serveLayers(rc, fresh, hit, fills, before, after, out)
	}
	rc.prov.RefSliceMS = median(y.times)
	out.metrics["peak_rss_mb"] = rss
	out.metrics["success_ratio"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	out.metrics["cold_mean_ms"] = mean(fresh.untraced)
	out.metrics["suite_wall_s"] = mean(fresh.roundWalls)
	out.metrics["campaign_cold_points_per_s"] = float64(len(programs)) / mean(fresh.roundWalls)
	// The median block's percentiles: a block whose tail met a burst on
	// the shared machine moves them less than it would the percentiles
	// of all hits pooled.
	out.metrics["hit_p50_ms"] = median(hit.p50)
	out.metrics["hit_p90_ms"] = median(hit.p90)
	return out, nil
}

// fillHits runs every program once at the default config so the hit
// phase finds each in the result cache; it returns the bytes served. A
// reference slice follows each fill; it returns the time they took too.
func fillHits(hc *httpClient, base string, programs []string, y *yardstick) (map[string][]byte, time.Duration, error) {
	fills := make(map[string][]byte, len(programs))
	var inSlices time.Duration
	for _, p := range programs {
		status, body, err := hc.do(http.MethodPost, base+"/run", hitBody(p))
		if err != nil {
			return nil, 0, err
		}
		if status != http.StatusOK {
			return nil, 0, fmt.Errorf("fill %s: status %d: %s", p, status, bytes.TrimSpace(body))
		}
		fills[p] = body
		t := time.Now()
		y.slice()
		inSlices += time.Since(t)
	}
	return fills, inSlices, nil
}

// freshResult is what the fresh phase observed.
type freshResult struct {
	reqs       []freshRequest
	bodies     [][]byte
	untraced   []float64 // client latency (ms) of untraced requests
	roundWalls []float64 // seconds per whole untraced round, less its slices
	sample     []int     // requests re-run in process after the window
	// A traced run's traced requests: client latency, and the daemon's
	// steps replayed in process right after each (ms).
	traced                       []float64
	parse, compile, run, marshal []float64
}

// hitResult is what the hit phase observed.
type hitResult struct {
	untraced, traced []float64 // client latency in ms; traced runs only
	p50, p90         []float64 // each block's percentiles, scaled; end-to-end runs only
}

// serveWindow alternates one fresh round with one block of hits until
// the window ends, so both phases sample the whole window; each hit block
// lasts (1-freshShare)/freshShare of the round before it. A traced run
// alternates untraced and traced rounds, and traced and untraced hits.
//
// With a yardstick and an echo process, a reference slice follows each
// fresh request, while the daemon is idle, and an echo round trip each
// hit, and the untraced times are reported at the reference speed: a
// fresh request's by the slices around it (yardstick.local), a hit
// block's percentiles by the same percentiles of its echo round trips.
func serveWindow(rc *runCtx, hc *httpClient, base string, programs []string, fills map[string][]byte,
	y *yardstick, echo *echoer, out *outcome) (*freshResult, *hitResult, error) {
	gen := newFreshGen(rc.seed, programs)
	fr := &freshResult{}
	hr := &hitResult{untraced: make([]float64, 0, 1<<16)}
	hitBodies := make([][]byte, len(programs))
	for i, p := range programs {
		hitBodies[i] = hitBody(p)
	}
	hits := 0
	deadline := time.Now().Add(rc.seconds)
	for round := 0; round == 0 || (rc.trace && round < 2) || time.Now().Before(deadline); round++ {
		reqs := gen.next()
		if reqs == nil {
			break
		}
		traced := rc.trace && round%2 == 1
		var roundMS float64
		var lats []float64
		var mark int
		if y != nil {
			mark = len(y.times)
		}
		for i, f := range reqs {
			id := "fresh-" + strconv.Itoa(round) + "-" + strconv.Itoa(i)
			lat, body, err := timedRun(rc.tr, traced, hc, base, id, f.body(), out)
			if err != nil {
				return nil, nil, err
			}
			roundMS += lat
			if traced {
				fr.traced = append(fr.traced, lat)
				if err := replay(rc.tr, id, f, body, fr, out); err != nil {
					return nil, nil, err
				}
			} else {
				lats = append(lats, lat)
			}
			if y != nil {
				y.slice()
			}
			fr.reqs = append(fr.reqs, f)
			fr.bodies = append(fr.bodies, body)
		}
		if !traced {
			var refs []float64
			if y != nil {
				refs = y.local(mark)
			}
			var wall float64
			for i, lat := range lats {
				if refs != nil {
					lat = atRef(lat, refs[i])
				}
				fr.untraced = append(fr.untraced, lat)
				wall += lat
			}
			fr.roundWalls = append(fr.roundWalls, wall/1000)
		}

		until := time.Now().Add(time.Duration(roundMS * float64(time.Millisecond) * (1 - freshShare) / freshShare))
		var hitLats []float64
		for ; time.Now().Before(until); hits++ {
			p := hits % len(programs)
			tracedHit := rc.trace && hits%2 == 1
			lat, body, err := timedRun(rc.tr, tracedHit, hc, base, "hit-"+strconv.Itoa(hits), hitBodies[p], out)
			if err != nil {
				return nil, nil, err
			}
			if !bytes.Equal(body, fills[programs[p]]) {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: hit %s: answer differs from the fill\n", programs[p])
			}
			if tracedHit {
				hr.traced = append(hr.traced, lat)
			} else {
				hitLats = append(hitLats, lat)
			}
			if echo != nil {
				if err := echo.roundTrip(hitBodies[p]); err != nil {
					return nil, nil, err
				}
			}
		}
		if echo == nil {
			hr.untraced = append(hr.untraced, hitLats...)
		} else if len(hitLats) > 0 {
			f50, f90 := echo.scales()
			hr.p50 = append(hr.p50, quantile(hitLats, 0.5)*f50)
			hr.p90 = append(hr.p90, quantile(hitLats, 0.9)*f90)
		}
	}
	// The sample: one request per round from the first rounds, at a
	// seeded position.
	pick := newFreshGen(rc.seed+1, programs).rng
	for r := 0; r < checkSample && (r+1)*len(programs) <= len(fr.reqs); r++ {
		fr.sample = append(fr.sample, r*len(programs)+pick.Intn(len(programs)))
	}
	return fr, hr, nil
}

// timedRun sends one /run and returns its client latency in ms and the
// answer; a non-200 answer counts as a failed operation.
func timedRun(tr *Tracer, traced bool, hc *httpClient, base, id string, body []byte, out *outcome) (float64, []byte, error) {
	var sp int
	if traced {
		sp = tr.Begin("http.run", id, 0)
	}
	t := time.Now()
	status, answer, err := hc.do(http.MethodPost, base+"/run", body)
	lat := ms(time.Since(t))
	tr.End(sp)
	if err != nil {
		return 0, nil, err
	}
	out.attempted++
	if status != http.StatusOK {
		out.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: status %d\n", body, status)
	}
	return lat, answer, nil
}

// freshOptions are the core options the daemon derives from a fresh
// request: the default timing model with the request's mispredict
// penalty, and the request's L1 shape.
func freshOptions(f freshRequest) core.Options {
	cfg := pentium.DefaultConfig()
	cfg.MispredictPenalty = f.Mispredict
	spec := core.DefaultCacheSpec()
	spec.L1Size, spec.L1Ways = f.L1Size, f.L1Ways
	return core.Options{Pentium: &cfg, Cache: &spec}
}

// checkFresh re-runs one fresh request in process and compares its report
// with the served one byte for byte.
func checkFresh(f freshRequest, served []byte) error {
	b, ok := suite.ByName(f.Program)
	if !ok {
		return fmt.Errorf("unknown program %s", f.Program)
	}
	comp, err := core.CompileBenchmark(b)
	if err != nil {
		return err
	}
	res, err := core.RunCompiled(comp, freshOptions(f))
	if err != nil {
		return err
	}
	return sameReport(f.body(), served, res.Report)
}

// sameReport compares the report inside a served /run body with want.
func sameReport(reqBody, served []byte, want *profile.Report) error {
	var sr servedReport
	if err := json.Unmarshal(served, &sr); err != nil {
		return fmt.Errorf("%s: served body: %w", reqBody, err)
	}
	var got bytes.Buffer
	if err := json.Compact(&got, sr.Report); err != nil {
		return fmt.Errorf("%s: served report: %w", reqBody, err)
	}
	direct, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), direct) {
		return fmt.Errorf("%s: served report differs from an in-process run", reqBody)
	}
	return nil
}

// serveLayers attributes the serve workload's time. The daemon's layers
// come from the in-process replays of the traced fresh requests; what the
// client saw beyond them is HTTP, admission and queue wait.
func serveLayers(rc *runCtx, fresh *freshResult, hit *hitResult, fills map[string][]byte,
	before, after map[string]float64, out *outcome) error {
	tr := rc.tr
	out.metrics["server.parse_us"] = 1000 * mean(fresh.parse)
	out.metrics["server.compile_ms"] = mean(fresh.compile)
	out.metrics["core.run_ms"] = mean(fresh.run)
	out.metrics["server.marshal_ms"] = mean(fresh.marshal)
	out.metrics["server.residual_ms"] = mean(fresh.traced) - mean(fresh.parse) - mean(fresh.compile) -
		mean(fresh.run) - mean(fresh.marshal)

	hitParse, lookup, err := hitLayers(tr, fills)
	if err != nil {
		return err
	}
	out.metrics["server.result_lookup_us"] = lookup
	out.metrics["server.hit_residual_us"] = 1000*quantile(hit.untraced, 0.5) - hitParse - lookup
	out.metrics["server.hit_p99_ms"] = quantile(hit.untraced, 0.99)
	out.metrics["trace.overhead_pct"] = 100 * (quantile(hit.traced, 0.5) - quantile(hit.untraced, 0.5)) / quantile(hit.untraced, 0.5)

	delta := func(k string) float64 { return after[k] - before[k] }
	out.metrics["server.result_hit_ratio"] = ratio(delta("result_cache_hits"), delta("result_cache_hits")+delta("result_cache_misses"))
	out.metrics["server.compile_hit_ratio"] = ratio(delta("cache_hits"), delta("cache_hits")+delta("cache_misses"))
	out.metrics["server.rejected_429"] = delta("rejected_429")
	out.metrics["server.runs_failed"] = delta("runs_failed")

	// Exact counters over the first round, which every run completes.
	var instrs, cycles, accesses, l1, fast, per float64
	for i := 0; i < len(suite.Names()) && i < len(fresh.bodies); i++ {
		var sr servedReport
		var rep profile.Report
		if err := json.Unmarshal(fresh.bodies[i], &sr); err != nil {
			return err
		}
		if err := json.Unmarshal(sr.Report, &rep); err != nil {
			return err
		}
		instrs += float64(rep.DynamicInstructions)
		cycles += float64(rep.Cycles)
		accesses += float64(rep.CacheAccesses)
		l1 += float64(rep.L1Misses)
		fast += float64(sr.Blocks.FastEvents)
		per += float64(sr.Blocks.PerEvents)
	}
	out.metrics["vm.instrs"] = instrs
	out.metrics["pentium.cycles"] = cycles
	out.metrics["mem.accesses"] = accesses
	out.metrics["mem.l1_misses"] = l1
	out.metrics["vm.block_fast_pct"] = 100 * ratio(fast, fast+per)
	return nil
}

// replay repeats, in process and right after the HTTP call, the steps the
// daemon took for one fresh request, each under a span sharing the
// request's id, and checks the served report against the replayed one.
// The daemon is idle meanwhile, so the client latency and its parts are
// measured under the same host conditions.
func replay(tr *Tracer, id string, f freshRequest, served []byte, fr *freshResult, out *outcome) error {
	root := tr.Begin("replay", id, 0)
	defer tr.End(root)
	ps := tr.Begin("server.parse", id, root)
	req, err := server.ParseRunRequest(f.body())
	tr.End(ps)
	if err != nil {
		return err
	}
	b, ok := suite.ByName(req.Program)
	if !ok {
		return fmt.Errorf("unknown program %s", req.Program)
	}
	cs := tr.Begin("server.compile", id, root)
	comp, err := core.CompileBenchmark(b)
	tr.End(cs)
	if err != nil {
		return err
	}
	rs := tr.Begin("core.run", id, root)
	res, err := core.RunCompiled(comp, freshOptions(f))
	tr.End(rs)
	if err != nil {
		return err
	}
	mk := tr.Begin("server.marshal", id, root)
	body, err := json.MarshalIndent(server.RunResponse{
		Program: req.Program, Dispatch: "auto", WallNS: res.Wall.Nanoseconds(),
		InstrsPerSec: res.InstrsPerSec(), Blocks: res.Blocks, Report: res.Report,
	}, "", "  ")
	server.ETagFor(req.ResultKey(), body)
	tr.End(mk)
	if err != nil {
		return err
	}
	if err := sameReport(f.body(), served, res.Report); err != nil {
		out.failed++
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	fr.parse = append(fr.parse, tr.ms(ps))
	fr.compile = append(fr.compile, tr.ms(cs))
	fr.run = append(fr.run, tr.ms(rs))
	fr.marshal = append(fr.marshal, tr.ms(mk))
	return nil
}

// hitLayers times, in process, the two daemon steps of a hit: parsing the
// hit bodies and a ResultCache.Do hit on a cache holding the fills. Both
// are medians in µs.
func hitLayers(tr *Tracer, fills map[string][]byte) (float64, float64, error) {
	cache := server.NewResultCache(512, "")
	ctx := context.Background()
	var parse, lookup []float64
	for p, fill := range fills {
		body := hitBody(p)
		sp := tr.Begin("server.parse", "hit-"+p, 0)
		req, err := server.ParseRunRequest(body)
		tr.End(sp)
		if err != nil {
			return 0, 0, err
		}
		parse = append(parse, 1000*tr.ms(sp))
		key := req.ResultKey()
		if _, _, err := cache.Do(ctx, key, func() ([]byte, error) { return fill, nil }); err != nil {
			return 0, 0, err
		}
		sp = tr.Begin("server.result_lookup", "hit-"+p, 0)
		for i := 0; i < lookupReps; i++ {
			if _, _, err := cache.Do(ctx, key, nil); err != nil {
				return 0, 0, err
			}
		}
		tr.End(sp)
		lookup = append(lookup, 1000*tr.ms(sp)/lookupReps)
	}
	return median(parse), median(lookup), nil
}
