// The concurrent suite runner. Independent benchmark runs are
// embarrassingly parallel: each Run call builds its own asm.Program and
// owns a private pentium.Model, profile.Collector, vm.CPU and
// mem.Hierarchy, so runs share nothing mutable.
//
// Goroutine-safety audit of the shared inputs (why per-run isolation is
// sufficient):
//
//   - Benchmark.Build closures (internal/kernels, internal/apps) assemble
//     into a fresh asm.Builder. Workload inputs that are costly to
//     synthesize (image, jpeg, g722) are memoized once per process
//     behind sync.OnceValue and only read: the builder copies them into
//     the program. The others are built per call from a locally seeded
//     synth.Rand.
//   - Benchmark.Check closures compare the halted CPU handed to them
//     against reference answers that are either computed per call or,
//     where costly (image, jpeg), memoized the same way and only read.
//   - Package-level tables reachable from a run (isa.opTable, class/reg
//     name tables, internal/dsp DCT tables, apps.aanScale) are initialized
//     at package load and read-only afterwards.
//   - The suite registry (internal/suite) memoizes behind sync.Once and
//     hands out defensive copies; Benchmark values are copied into each
//     worker.
//   - Options is passed by value; the *pentium.Config it may carry is only
//     dereferenced (copied) by Run, never written.
//
// The one shared-writer hazard is Options.Trace: a single io.Writer fed by
// concurrent runs would interleave lines, so RunAll degrades to a single
// worker whenever tracing is requested.

package core

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// RunStatus is delivered to Options.Progress as each benchmark retires.
type RunStatus struct {
	Benchmark Benchmark
	// Result is the successful outcome; nil when Err is non-nil.
	Result *Result
	// Err is the failure, if any.
	Err error
	// Done counts benchmarks retired so far (including this one); Total
	// is the suite size.
	Done, Total int
}

// RunFailure is one failed benchmark inside a RunError.
type RunFailure struct {
	Name string // program name, e.g. "fft.mmx"
	Err  error
}

// RunError aggregates every failure of a RunAll invocation. Failures are
// ordered by the benchmarks' position in the input slice, so the error
// text is deterministic regardless of completion order.
type RunError struct {
	Failures []RunFailure
	// Total is how many benchmarks the suite attempted.
	Total int
}

// Error summarizes all failures.
func (e *RunError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %d of %d benchmarks failed", len(e.Failures), e.Total)
	for _, f := range e.Failures {
		fmt.Fprintf(&b, "\n  %s: %v", f.Name, f.Err)
	}
	return b.String()
}

// Unwrap exposes the individual failures to errors.Is/errors.As.
func (e *RunError) Unwrap() []error {
	errs := make([]error, len(e.Failures))
	for i, f := range e.Failures {
		errs[i] = f.Err
	}
	return errs
}

// RunAll runs every benchmark on a bounded worker pool and returns results
// keyed by program name. opt.Parallelism sets the pool width (0 = one
// worker per GOMAXPROCS); every run is attempted even when some fail, and
// all failures come back aggregated in a *RunError alongside the partial
// result map. Because results are keyed and each run is fully isolated,
// the map — and any table or figure rendered from it — is identical
// whatever the pool width or completion order.
func RunAll(benches []Benchmark, opt Options) (map[string]*Result, error) {
	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if opt.Trace != nil {
		workers = 1 // a shared trace writer must not interleave
	}
	if workers > len(benches) {
		workers = len(benches)
	}

	results := make([]*Result, len(benches))
	errs := make([]error, len(benches))
	jobs := make(chan int)

	var (
		progressMu sync.Mutex
		done       int
		wg         sync.WaitGroup
	)
	retire := func(i int, r *Result, err error) {
		if opt.Progress == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		done++
		opt.Progress(RunStatus{
			Benchmark: benches[i], Result: r, Err: err,
			Done: done, Total: len(benches),
		})
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// First-caller cancellation: work not yet started is
				// skipped (recorded as a failure wrapping ctx.Err()), and
				// runs in flight abort through the VM poll hook that Run
				// installs from opt.Ctx.
				if opt.Ctx != nil && opt.Ctx.Err() != nil {
					err := fmt.Errorf("core: run %s: skipped: %w", benches[i].Name(), opt.Ctx.Err())
					results[i], errs[i] = nil, err
					retire(i, nil, err)
					continue
				}
				r, err := Run(benches[i], opt)
				results[i], errs[i] = r, err
				retire(i, r, err)
			}
		}()
	}
	for i := range benches {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := make(map[string]*Result, len(benches))
	var failures []RunFailure
	for i, b := range benches {
		if errs[i] != nil {
			failures = append(failures, RunFailure{Name: b.Name(), Err: errs[i]})
			continue
		}
		out[b.Name()] = results[i]
	}
	if len(failures) > 0 {
		return out, &RunError{Failures: failures, Total: len(benches)}
	}
	return out, nil
}

// SuiteStats summarizes a result set for observability: total simulated
// work and host wall time. Wall sums per-run times, so with Parallelism>1
// it exceeds the elapsed time by roughly the achieved speedup.
type SuiteStats struct {
	Programs     int
	Instructions uint64  // retired measured-region instructions
	Cycles       uint64  // simulated Pentium cycles
	WallSeconds  float64 // summed per-run host wall time
}

// Stats aggregates the per-run observability summaries of a result set.
func Stats(rs map[string]*Result) SuiteStats {
	var s SuiteStats
	for _, r := range rs {
		s.Programs++
		s.Instructions += r.Report.DynamicInstructions
		s.Cycles += r.Report.Cycles
		s.WallSeconds += r.Wall.Seconds()
	}
	return s
}

// InstrsPerSec returns the aggregate host simulation throughput.
func (s SuiteStats) InstrsPerSec() float64 {
	if s.WallSeconds <= 0 {
		return 0
	}
	return float64(s.Instructions) / s.WallSeconds
}

// SortedNames returns the result set's program names, sorted — a
// deterministic iteration order for rendering result maps.
func SortedNames(rs map[string]*Result) []string {
	names := make([]string, 0, len(rs))
	for n := range rs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
