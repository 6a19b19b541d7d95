package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/suite"
)

// The campaign workload runs mmxfleet over two `mmxd -workers 1`
// backends. One POST /campaign sends a seeded grid of all 21 programs ×
// two L1 sizes × two mispredict penalties with skip_check, as ablation
// users send it; the clock stops at the terminal event of the campaign's
// SSE stream. The identical grid is then re-run, fully cached at the
// coordinator. It is the only workload through cluster routing,
// bulk-priority queueing and the campaign engine, and with checks
// skipped it is the no-change workload for the check layer.

const (
	campaignSetups = 3
	// coldShare is the part of the window given to cold campaigns; after
	// each one and its re-run, the grid's points are sent to the
	// coordinator's /run for (1-coldShare)/coldShare of the cold time.
	coldShare = 0.8
	// parseReps is how many in-process campaign.ParseSpec calls one
	// campaign.parse_ms sample takes the median of.
	parseReps = 21
	// backends is how many mmxd the coordinator routes over.
	backends = 2
	// samplePeriod spaces the reference slices run beside a set-up or a
	// cold campaign, taking the backends' CPUs in turn: each loses about
	// 4% of its time to them, the same in every run.
	samplePeriod = 100 * time.Millisecond
)

// fleet is the three daemons of one set-up.
type fleet struct {
	backends []*daemon
	coord    *daemon
}

func (f *fleet) all() []*daemon { return append(append([]*daemon(nil), f.backends...), f.coord) }

func (f *fleet) stop() {
	if f != nil {
		stopAll(f.all())
	}
}

// campaignStatus is the part of the campaign resource the benchmark reads.
type campaignStatus struct {
	ID           string `json:"id"`
	Status       string `json:"status"`
	Total        int    `json:"total"`
	Failed       int    `json:"failed"`
	Cached       int    `json:"cached"`
	Canceled     int    `json:"canceled"`
	ArtifactsCSV string `json:"artifacts_csv"`
}

func runCampaign(rc *runCtx) (*outcome, error) {
	runtime.GOMAXPROCS(1)
	rc.prov.GOMAXPROCS["perfbench"] = 1
	// The backends do the simulation, backend i on CPU i with one P
	// (affinity.go); the coordinator only routes.
	const backendProcs = 1
	cpus, err := allowedCPUs()
	if err != nil {
		return nil, err
	}
	cpuOf := func(i int) int { return cpus[i%len(cpus)] }
	rc.prov.CPUs = map[string][]int{}
	ys := make([]*yardstick, backends) // ys[i] runs on backend i's CPU
	for i := range ys {
		rc.prov.CPUs["mmxd-"+strconv.Itoa(i)] = []int{cpuOf(i)}
		ys[i] = newYardstick()
	}

	programs := suite.Names()
	gen := newGridGen(rc.seed, programs)
	hc := newHTTPClient()
	out := newOutcome()

	var (
		setups []float64
		fl     *fleet
	)
	defer func() { fl.stop() }()
	for i := 0; i < campaignSetups; i++ {
		fl.stop()
		smp := startSampler(ys, cpuOf)
		t0 := time.Now()
		var err error
		if fl, err = startFleet(rc, hc, backendProcs, cpuOf); err != nil {
			_, _ = smp.end() // the start's error is the one to report
			return nil, err
		}
		if _, _, err := runGrid(rc.tr, hc, fl.coord.url, gen.warmSpec(), "warmup"); err != nil {
			_, _ = smp.end() // the start's error is the one to report
			return nil, err
		}
		raw := time.Since(t0).Seconds()
		ref, err := smp.end()
		if err != nil {
			return nil, err
		}
		setups = append(setups, atRef(raw, ref))
	}
	out.metrics["setup_s"] = median(setups)
	rc.prov.GOMAXPROCS["mmxd"] = backendProcs
	rc.prov.GOMAXPROCS["mmxfleet"] = 1
	for _, d := range fl.all() {
		rc.prov.Daemons = append(rc.prov.Daemons, d.info)
	}

	coordBefore, err := hc.scrape(fl.coord.url)
	if err != nil {
		return nil, err
	}
	// The end-to-end run reports its times at the reference speed: a
	// set-up's and a cold campaign's by the slices run beside it
	// (sampler), the coordinator hits after each campaign by the echo
	// round trips between them. A traced run reports raw cold times.
	var echo *echoer
	defer func() { echo.stop() }()
	if !rc.trace {
		if echo, err = startEcho(rc); err != nil {
			return nil, err
		}
	}
	var (
		coldS                    float64 // seconds at the reference speed
		tracedWall               time.Duration
		coldPoints, tracedPoints int
		rerunMS                  []float64
		rerunCached, rerunTotal  int
		lastSpec                 []byte
	)
	var hitP50, hitP90 []float64 // each hit block's
	deadline := time.Now().Add(rc.seconds)
	for k := 0; k == 0 || (rc.trace && k < 2) || time.Now().Before(deadline); k++ {
		spec := gen.nextSpec()
		if spec == nil {
			break
		}
		lastSpec = spec
		var backBefore []map[string]float64
		if k == 0 && rc.trace {
			if backBefore, err = scrapeAll(hc, fl.backends); err != nil {
				return nil, err
			}
		}
		traced := rc.trace && k%2 == 1
		tr := rc.tr
		if !traced {
			tr = nil
		}
		var smp *sampler
		if !rc.trace {
			smp = startSampler(ys, cpuOf)
		}
		cold, wall, err := runGrid(tr, hc, fl.coord.url, spec, "cold-"+strconv.Itoa(k))
		ref, serr := smp.end()
		if err != nil {
			return nil, err
		}
		if serr != nil {
			return nil, serr
		}
		if traced {
			tracedWall += wall
			tracedPoints += cold.Total
		} else {
			coldS += atRef(wall.Seconds(), ref)
			coldPoints += cold.Total
		}
		out.attempted += cold.Total
		out.failed += cold.Failed + cold.Canceled
		if k == 0 && rc.trace {
			if err := firstColdLayers(hc, fl, backBefore, cold, out); err != nil {
				return nil, err
			}
		}

		rerun, rwall, err := runGrid(tr, hc, fl.coord.url, spec, "rerun-"+strconv.Itoa(k))
		if err != nil {
			return nil, err
		}
		rerunMS = append(rerunMS, ms(rwall))
		rerunCached += rerun.Cached
		rerunTotal += rerun.Total
		out.attempted += rerun.Total
		out.failed += rerun.Failed + rerun.Canceled
		if rerun.ArtifactsCSV != cold.ArtifactsCSV || cold.ArtifactsCSV == "" {
			out.failed += rerun.Total
			fmt.Fprintf(os.Stderr, "perfbench: campaign %s: re-run points.csv differs from the cold run\n", spec)
		}
		lat, err := coordHits(hc, fl.coord.url, spec, time.Duration(float64(wall)*(1-coldShare)/coldShare), echo, out)
		if err != nil {
			return nil, err
		}
		f50, f90 := 1.0, 1.0
		if echo != nil {
			f50, f90 = echo.scales()
		}
		hitP50 = append(hitP50, quantile(lat, 0.5)*f50)
		hitP90 = append(hitP90, quantile(lat, 0.9)*f90)
	}
	coordAfter, err := hc.scrape(fl.coord.url)
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, d := range fl.all() {
		r, err := d.peakRSSMiB()
		if err != nil {
			return nil, err
		}
		rss += r
	}
	fl.stop()
	fl = nil
	if echo != nil {
		rc.prov.EchoRTTMS = median(echo.rtts)
	}
	echo.stop()
	echo = nil

	rate := float64(coldPoints) / coldS
	if rc.trace {
		delta := func(k string) float64 { return coordAfter[k] - coordBefore[k] }
		out.metrics["cluster.affinity_ratio"] = ratio(delta("affinity_routed"), delta("affinity_routed")+delta("fallback_routed"))
		out.metrics["cluster.retries"] = delta("retries")
		out.metrics["cluster.shed"] = delta("shed_503") + delta("bulk_shed_429")
		out.metrics["cluster.rerun_ms"] = median(rerunMS)
		out.metrics["cluster.rerun_cached_ratio"] = ratio(float64(rerunCached), float64(rerunTotal))
		// Time per point, traced against untraced.
		out.metrics["trace.overhead_pct"] = 100 * (rate/(float64(tracedPoints)/tracedWall.Seconds()) - 1)
		var parse []float64
		for i := 0; i < parseReps; i++ {
			t := time.Now()
			if _, _, err := campaign.ParseSpec(lastSpec, campaign.DefaultLimits()); err != nil {
				return nil, err
			}
			parse = append(parse, ms(time.Since(t)))
		}
		out.metrics["campaign.parse_ms"] = median(parse)
		return out, nil
	}
	var times []float64
	for _, y := range ys {
		times = append(times, y.times...)
	}
	rc.prov.RefSliceMS = median(times)
	out.metrics["peak_rss_mb"] = rss
	out.metrics["success_ratio"] = 1 - ratio(float64(out.failed), float64(out.attempted))
	out.metrics["campaign_cold_points_per_s"] = rate
	out.metrics["suite_wall_s"] = float64(len(programs)) / rate
	out.metrics["cold_mean_ms"] = 1000 / rate
	out.metrics["hit_p50_ms"] = median(hitP50)
	out.metrics["hit_p90_ms"] = median(hitP90)
	return out, nil
}

// refOver is the slice time for work spread over the CPUs of ys since
// marks: the harmonic mean of each CPU's median, since the backends share
// the points out as each comes free, so a campaign's throughput is the
// sum of the CPUs' speeds.
func refOver(ys []*yardstick, marks []int) float64 {
	var speed float64
	for i, y := range ys {
		speed += 1 / y.since(marks[i])
	}
	return float64(len(ys)) / speed
}

// sampler runs reference slices beside a set-up or a cold campaign. A
// campaign keeps both CPUs busy for 3–5 s, longer than the machine holds
// one speed, so slices only before and after it scaled it badly (ten-seed
// spread 12–19%). The sampler runs one slice every samplePeriod on each
// backend's CPU in turn. The backends run at nice 19, so a slice preempts
// the backend on its CPU and times the machine rather than its share of
// the CPU.
type sampler struct {
	ys    []*yardstick
	cpuOf func(int) int
	marks []int
	stop  chan struct{}
	done  chan error
}

func startSampler(ys []*yardstick, cpuOf func(int) int) *sampler {
	s := &sampler{ys: ys, cpuOf: cpuOf, stop: make(chan struct{}), done: make(chan error, 1)}
	for _, y := range ys {
		s.marks = append(s.marks, len(y.times))
	}
	go func() {
		t := time.NewTicker(samplePeriod)
		defer t.Stop()
		for i := 0; ; i++ {
			select {
			case <-s.stop:
				s.done <- nil
				return
			case <-t.C:
			}
			if err := s.slice(i % len(ys)); err != nil {
				s.done <- err
				return
			}
		}
	}()
	return s
}

func (s *sampler) slice(i int) error {
	return onCPU(s.cpuOf(i), func() error { s.ys[i].slice(); return nil })
}

// end stops the sampler and returns the slice time of the campaign it
// ran beside; a nil sampler returns refNominalMS, which atRef leaves a
// time unscaled by. Each CPU gets one slice at least.
func (s *sampler) end() (float64, error) {
	if s == nil {
		return refNominalMS, nil
	}
	close(s.stop)
	if err := <-s.done; err != nil {
		return 0, err
	}
	for i, y := range s.ys {
		if len(y.times) == s.marks[i] {
			if err := s.slice(i); err != nil {
				return 0, err
			}
		}
	}
	return refOver(s.ys, s.marks), nil
}

// startFleet starts two single-worker backends, backend i on CPU
// cpuOf(i) at nice 19 (see sampler), and a coordinator over them, each
// healthy before it returns.
func startFleet(rc *runCtx, hc *httpClient, backendProcs int, cpuOf func(int) int) (*fleet, error) {
	fl := &fleet{}
	var urls []string
	for i := 0; i < backends; i++ {
		var d *daemon
		err := onCPUNiced(cpuOf(i), func() (err error) {
			d, err = startDaemon(rc, hc, "mmxd-"+strconv.Itoa(i), "mmxd", backendProcs, "-workers", "1")
			return err
		})
		if err != nil {
			fl.stop()
			return nil, err
		}
		fl.backends = append(fl.backends, d)
		urls = append(urls, d.url)
	}
	coord, err := startDaemon(rc, hc, "mmxfleet", "mmxfleet", 1, "-backends", strings.Join(urls, ","),
		"-max-inflight", "1", "-campaign-workers", strconv.Itoa(backends), "-probe-interval", "1h")
	if err != nil {
		stopAll(fl.backends)
		return nil, err
	}
	fl.coord = coord
	return fl, nil
}

// runGrid posts one campaign, waits for its terminal event, and returns
// the final resource (with its points.csv) and the time from POST to the
// terminal event.
func runGrid(tr *Tracer, hc *httpClient, base string, spec []byte, req string) (*campaignStatus, time.Duration, error) {
	root := tr.Begin("campaign.run", req, 0)
	t0 := time.Now()
	sp := tr.Begin("http.post_campaign", req, root)
	status, body, err := hc.do(http.MethodPost, base+"/campaign", spec)
	tr.End(sp)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusAccepted {
		return nil, 0, fmt.Errorf("POST /campaign: status %d: %s", status, bytes.TrimSpace(body))
	}
	var created campaignStatus
	if err := json.Unmarshal(body, &created); err != nil {
		return nil, 0, err
	}
	sp = tr.Begin("sse.wait_done", req, root)
	doneAt, _, err := hc.awaitDone(base + "/campaign/" + created.ID + "/events")
	tr.End(sp)
	tr.End(root)
	if err != nil {
		return nil, 0, err
	}
	wall := doneAt.Sub(t0)
	var final campaignStatus
	if err := hc.getJSON(base+"/campaign/"+created.ID, &final); err != nil {
		return nil, 0, err
	}
	if final.Status != campaign.StatusCompleted {
		return nil, 0, fmt.Errorf("campaign %s ended %s", created.ID, final.Status)
	}
	return &final, wall, nil
}

func scrapeAll(hc *httpClient, ds []*daemon) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, d := range ds {
		m, err := hc.scrape(d.url)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// firstColdLayers reads the layer counters of the first cold campaign:
// the compile misses it cost the backends, the coordinator's and the
// backends' point latencies, and the exact work counters from its
// points.csv.
func firstColdLayers(hc *httpClient, fl *fleet, backBefore []map[string]float64, cold *campaignStatus, out *outcome) error {
	backAfter, err := scrapeAll(hc, fl.backends)
	if err != nil {
		return err
	}
	var misses float64
	var sim []float64
	for i := range backAfter {
		misses += backAfter[i]["cache_misses"] - backBefore[i]["cache_misses"]
		sim = append(sim, backAfter[i]["wall_ms_p50"])
	}
	coord, err := hc.scrape(fl.coord.url)
	if err != nil {
		return err
	}
	out.metrics["server.compile_miss_ratio"] = ratio(misses, float64(cold.Total))
	out.metrics["cluster.point_wall_ms_p50"] = coord["campaign_point_wall_ms_p50"]
	out.metrics["server.sim_wall_ms_p50"] = mean(sim)
	out.metrics["campaign.point_overhead_ms"] = coord["campaign_point_wall_ms_p50"] - mean(sim)

	// points.csv: program,dispatch,<axes...>,cycles,instructions,l1_misses,l2_misses
	var cycles, instrs, l1 float64
	for _, line := range strings.Split(strings.TrimSpace(cold.ArtifactsCSV), "\n")[1:] {
		f := strings.Split(line, ",")
		if len(f) < 4 {
			return fmt.Errorf("points.csv row %q", line)
		}
		vals := make([]float64, 4)
		for i := range vals {
			v, err := strconv.ParseFloat(f[len(f)-4+i], 64)
			if err != nil {
				return fmt.Errorf("points.csv row %q: %w", line, err)
			}
			vals[i] = v
		}
		cycles += vals[0]
		instrs += vals[1]
		l1 += vals[2]
	}
	out.metrics["pentium.cycles"] = cycles
	out.metrics["vm.instrs"] = instrs
	out.metrics["mem.l1_misses"] = l1
	return nil
}

// coordHits sends a finished grid's points to the coordinator's /run for
// the given time: each is answered from the coordinator's result cache,
// filled by the campaign, and must repeat its first answer. With an echo
// process, an echo round trip follows each hit.
func coordHits(hc *httpClient, base string, spec []byte, window time.Duration, echo *echoer, out *outcome) ([]float64, error) {
	_, points, err := campaign.ParseSpec(spec, campaign.DefaultLimits())
	if err != nil {
		return nil, err
	}
	lat := make([]float64, 0, 1<<15)
	first := make([][]byte, len(points))
	deadline := time.Now().Add(window)
	for i := 0; i < len(points) || time.Now().Before(deadline); i++ {
		p := i % len(points)
		t := time.Now()
		status, body, err := hc.do(http.MethodPost, base+"/run", points[p].Body)
		lat = append(lat, ms(time.Since(t)))
		if err != nil {
			return nil, err
		}
		out.attempted++
		if first[p] == nil {
			first[p] = body
		}
		if status != http.StatusOK || !bytes.Equal(body, first[p]) {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: coordinator hit %s: status %d or changed bytes\n", points[p].Body, status)
		}
		if echo != nil {
			if err := echo.roundTrip(points[p].Body); err != nil {
				return nil, err
			}
		}
	}
	return lat, nil
}
