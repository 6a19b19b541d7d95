// Package server is the mmxd simulation service: an HTTP/JSON daemon that
// serves simulated Pentium-with-MMX benchmark runs on top of the
// concurrent suite runner. It amortizes program construction across
// requests with a bounded LRU of compiled artifacts, bounds concurrency
// with a worker pool plus an admission queue that sheds load with 429s,
// threads per-request contexts into the interpreter's poll hook so
// deadlines, client disconnects and drain all halt simulation mid-run, and
// exposes its internals through /metrics.
//
// Endpoints:
//
//	POST /run       run one benchmark (RunRequest -> RunResponse)
//	GET  /table     run the suite, return the paper's Table 2/3 artifacts
//	GET  /programs  the program registry (ProgramsResponse) — capability
//	                discovery for coordinators fronting several daemons
//	GET  /healthz   liveness (503 while draining)
//	GET  /metrics   JSON counter snapshot (MetricsSnapshot)
//
// Every response carries an X-Request-ID header: the client's value when
// supplied, a generated one otherwise. Error paths included — the ID is
// stamped before the handler runs, so fleet logs can correlate a request
// across a coordinator and the backend it was routed (or hedged) to.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"mmxdsp/internal/campaign"
	"mmxdsp/internal/core"
	"mmxdsp/internal/suite"
)

// Config tunes the daemon; zero values select the documented defaults.
type Config struct {
	// CacheEntries bounds the compiled-program LRU (default 64 — one
	// artifact per program: the whole suite, with room for /asm sources).
	CacheEntries int
	// ResultCacheEntries bounds the result-cache LRU of marshaled response
	// bytes (default 512; negative disables result caching). Simulation is
	// deterministic, so a cached response is byte-identical to re-running.
	ResultCacheEntries int
	// ResultCacheDir, when non-empty, enables the persistent result spill
	// tier: cached responses are also written there and survive daemon
	// restarts. Ignored when result caching is disabled.
	ResultCacheDir string
	// ResultCacheSpillMaxBytes and ResultCacheSpillMaxFiles bound the spill
	// directory (0 = unlimited): after each spill write, oldest-modified
	// result files are deleted until both bounds hold. Ignored without
	// ResultCacheDir.
	ResultCacheSpillMaxBytes int64
	ResultCacheSpillMaxFiles int
	// Workers bounds concurrently executing simulations (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker slot; beyond it the
	// server answers 429 (default 64).
	QueueDepth int
	// DefaultTimeout applies to requests that set no timeout_ms; 0 means
	// no server-imposed deadline.
	DefaultTimeout time.Duration
	// MaxInstrsCap, when positive, caps (and defaults) every request's
	// instruction budget, protecting the daemon from unbounded synthetic
	// programs.
	MaxInstrsCap int64
	// AsmMaxInstrsCap caps (and defaults) POST /asm instruction budgets.
	// User-submitted programs may loop forever, so this cap is always on:
	// 0 selects DefaultAsmMaxInstrs, negative disables (trusted setups
	// only). When MaxInstrsCap is also set the tighter bound wins.
	AsmMaxInstrsCap int64
	// MaxSourceBytes caps POST /asm source listings; beyond it the server
	// answers 413. 0 selects DefaultMaxSourceBytes.
	MaxSourceBytes int
	// Tenant configures per-tenant accounting (rate, concurrency and
	// instruction quotas) for /run and /asm; the zero value admits
	// everything but still records per-tenant counters.
	Tenant TenantLimits
	// CampaignDir, when non-empty, persists completed campaigns'
	// sensitivity artifacts (points.csv + sensitivity.md) under
	// CampaignDir/<id>/ with atomic writes.
	CampaignDir string
	// CampaignMaxPoints bounds one campaign's expanded grid (default
	// DefaultCampaignMaxPoints).
	CampaignMaxPoints int
	// CampaignWorkers bounds one campaign's concurrent points (default
	// DefaultCampaignWorkers); points still queue through the ordinary
	// admission pool.
	CampaignWorkers int
	// CampaignMaxActive bounds concurrently running campaigns (default
	// DefaultCampaignMaxActive); beyond it POST /campaign answers 429.
	CampaignMaxActive int
	// Lookup resolves program names; nil selects the suite registry.
	// Tests substitute synthetic registries (e.g. non-terminating
	// programs for cancellation coverage).
	Lookup func(string) (core.Benchmark, bool)
	// Benchmarks lists the programs /table runs; nil selects the full
	// suite.
	Benchmarks func() []core.Benchmark
}

// Server is one daemon instance. Create with New; it is ready to serve as
// soon as Handler is mounted.
type Server struct {
	cfg     Config
	cache   *codeCache
	results *ResultCache // nil when result caching is disabled
	metrics *metrics
	mux     *http.ServeMux

	// admit is the worker pool: bounded concurrency plus a two-priority
	// admission queue that sheds bulk traffic first (see admit.go).
	admit *admitter
	// tenants does per-tenant accounting and quota enforcement.
	tenants  *TenantLimiter
	draining atomic.Bool

	// campaigns is the campaign registry; campaignCtx scopes running
	// campaigns to the server lifetime (canceled on drain, so campaigns
	// stop with the daemon instead of outliving its HTTP requests).
	campaigns      *campaign.Store
	campaignCtx    context.Context
	campaignCancel context.CancelFunc
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 64
	}
	if cfg.ResultCacheEntries == 0 {
		cfg.ResultCacheEntries = 512
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.Lookup == nil {
		cfg.Lookup = suite.ByName
	}
	if cfg.Benchmarks == nil {
		cfg.Benchmarks = suite.All
	}
	if cfg.AsmMaxInstrsCap == 0 {
		cfg.AsmMaxInstrsCap = DefaultAsmMaxInstrs
	}
	if cfg.MaxSourceBytes <= 0 {
		cfg.MaxSourceBytes = DefaultMaxSourceBytes
	}
	if cfg.CampaignWorkers <= 0 {
		cfg.CampaignWorkers = DefaultCampaignWorkers
	}
	if cfg.CampaignMaxActive <= 0 {
		cfg.CampaignMaxActive = DefaultCampaignMaxActive
	}
	s := &Server{
		cfg:       cfg,
		cache:     newCodeCache(cfg.CacheEntries),
		metrics:   newMetrics(),
		admit:     newAdmitter(cfg.Workers, cfg.QueueDepth),
		tenants:   NewTenantLimiter(cfg.Tenant),
		campaigns: campaign.NewStore(cfg.CampaignMaxActive, 0),
	}
	s.campaignCtx, s.campaignCancel = context.WithCancel(context.Background())
	if cfg.ResultCacheEntries > 0 {
		s.results = NewResultCache(cfg.ResultCacheEntries, cfg.ResultCacheDir)
		s.results.SetSpillLimits(cfg.ResultCacheSpillMaxBytes, cfg.ResultCacheSpillMaxFiles)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/asm", s.handleAsm)
	s.mux.HandleFunc("/campaign", s.handleCampaign)
	s.mux.HandleFunc("/campaign/", s.handleCampaignID)
	s.mux.HandleFunc("/table", s.handleTable)
	s.mux.HandleFunc("/programs", s.handlePrograms)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return WithRequestID(s.mux) }

// StartDrain flips the server into drain mode: /healthz reports 503 so
// load balancers stop routing, and new work is refused with 503 while
// requests already admitted run to completion (http.Server.Shutdown then
// waits for those). Running campaigns are canceled — their points stop
// through the same context plumbing as any canceled run. cmd/mmxd calls
// this on SIGTERM/SIGINT.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.campaignCancel()
}

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// acquire admits one request into the worker pool at the given priority,
// queueing up to cfg.QueueDepth waiters (bulk capped to half). The release
// function must be called exactly once after the run retires.
func (s *Server) acquire(ctx context.Context, priority int) (release func(), err error) {
	release, err = s.admit.acquire(ctx, priority)
	if errors.Is(err, errQueueFull) {
		s.metrics.rejected.Add(1)
	}
	return release, err
}

// requestContext derives the run context: the HTTP request context (which
// fires on client disconnect) plus the resolved deadline.
func (s *Server) requestContext(r *http.Request, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(r.Context(), timeout)
	}
	return context.WithCancel(r.Context())
}

// capInstrs applies the server-side instruction-budget ceiling.
func (s *Server) capInstrs(req int64) (int64, error) {
	if s.cfg.MaxInstrsCap <= 0 {
		return req, nil
	}
	if req == 0 {
		return s.cfg.MaxInstrsCap, nil
	}
	if req > s.cfg.MaxInstrsCap {
		return 0, fmt.Errorf("max_instrs %d exceeds the server cap %d", req, s.cfg.MaxInstrsCap)
	}
	return req, nil
}

// compiledFor resolves a benchmark through the compiled-program cache,
// which keys on the program alone: one artifact serves every dispatch
// mode and configuration.
func (s *Server) compiledFor(req *RunRequest) (*core.Compiled, bool, error) {
	bench, ok := s.cfg.Lookup(req.Program)
	if !ok {
		return nil, false, fmt.Errorf("unknown program %q", req.Program)
	}
	return s.cache.get(req.Program, func() (*core.Compiled, error) {
		return core.CompileBenchmark(bench)
	})
}
