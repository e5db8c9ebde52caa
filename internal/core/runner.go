package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"time"

	"renaissance/internal/chaos"
	"renaissance/internal/metrics"
	"renaissance/internal/stats"
)

// Status classifies the outcome of one benchmark run. A non-ok status never
// aborts a sweep: Run returns the result with its status recorded, so the
// caller's loop moves on to the next spec (the steady-state-methodology
// requirement that a single misbehaving benchmark must not invalidate a
// whole suite run).
type Status string

const (
	// StatusOK marks a run that completed every phase without error.
	StatusOK Status = "ok"
	// StatusError marks a run aborted by a setup, iteration, or
	// validation error.
	StatusError Status = "error"
	// StatusTimeout marks a run abandoned because it exceeded its
	// deadline (Spec.Timeout or Runner.TimeoutOverride).
	StatusTimeout Status = "timeout"
	// StatusPanic marks a run whose workload panicked; the panic value
	// and stack are preserved in Result.Err.
	StatusPanic Status = "panic"
)

// PanicError wraps a recovered panic from a workload iteration (or setup /
// validation / teardown) so it can flow through the ordinary error paths
// with the goroutine stack attached.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// statusForError distinguishes panics from ordinary errors.
func statusForError(err error) Status {
	var pe *PanicError
	if errors.As(err, &pe) {
		return StatusPanic
	}
	return StatusError
}

// guard runs fn, converting a panic into a *PanicError so a misbehaving
// workload cannot take down the harness process.
func guard(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Result holds the outcome of one benchmark run: the per-iteration
// steady-state durations, the metric profile of the steady-state phase, and
// the run's terminal status.
type Result struct {
	Benchmark string           `json:"benchmark"`
	Suite     string           `json:"suite"`
	Warmup    int              `json:"warmupIterations"`
	Durations []float64        `json:"steadyStateMillis"` // per measured iteration
	Profile   *metrics.Profile `json:"profile,omitempty"`
	// Latency summarizes the workload's per-request latency distribution
	// over the steady-state phase, for workloads implementing
	// LatencyReporter; nil otherwise.
	Latency   *LatencySummary `json:"latency,omitempty"`
	Validated bool            `json:"validated"`
	Status    Status          `json:"status"`
	Err       string          `json:"error,omitempty"`
	// Attempts is how many times the run executed (1 plus retries used);
	// omitted from JSON for single-attempt runs.
	Attempts int `json:"attempts,omitempty"`
	// Recomputes counts RDD partition recomputes over the measured phase
	// (the lineage recovery engine re-running a failed partition); zero —
	// and omitted — in fault-free runs.
	Recomputes int64 `json:"rddRecomputes,omitempty"`
}

// MeanMillis returns the mean steady-state iteration time in milliseconds.
func (r *Result) MeanMillis() float64 { return stats.Mean(r.Durations) }

// Summary returns descriptive statistics of the steady-state durations.
func (r *Result) Summary() stats.Summary { return stats.Summarize(r.Durations) }

// WriteJSON writes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Runner executes benchmarks with a shared configuration and plugin list.
type Runner struct {
	Config  Config
	Plugins []Plugin
	// WarmupOverride / MeasuredOverride replace the spec's iteration counts
	// when > 0 (useful for quick runs and tests).
	WarmupOverride   int
	MeasuredOverride int
	// TimeoutOverride replaces every spec's Timeout when > 0. A run that
	// exceeds its deadline is abandoned on its goroutine and reported with
	// StatusTimeout instead of hanging the sweep.
	TimeoutOverride time.Duration
	// Retries is how many times a failed run — error, timeout, or panic —
	// is re-run from scratch; the first clean result wins, otherwise the
	// last failure stands. Every result records its attempt count.
	Retries int
}

// NewRunner returns a Runner with the default configuration.
func NewRunner() *Runner { return &Runner{Config: DefaultConfig()} }

// Use appends plugins to the runner.
func (r *Runner) Use(ps ...Plugin) { r.Plugins = append(r.Plugins, ps...) }

// Run sets up the spec's workload, executes the warmup phase, profiles the
// steady-state phase, validates the workload if it supports validation, and
// returns the result. The whole run executes on a monitored goroutine:
// panics are recovered into the result (StatusPanic) and a run exceeding
// its deadline is abandoned and reported (StatusTimeout) rather than
// hanging the suite. Failures abort the run and are reported both in the
// result and the returned error; in every case the returned Result is
// non-nil with its Status populated.
//
// A failing run is re-executed from scratch up to the runner's Retries:
// the first clean attempt's result is returned, otherwise the last
// failure's. Result.Attempts records how many attempts the returned result
// took.
func (r *Runner) Run(spec *Spec) (*Result, error) {
	for attempt := 1; ; attempt++ {
		res, err := r.runOnce(spec)
		res.Attempts = attempt
		if res.Status == StatusOK || attempt > r.Retries {
			return res, err
		}
	}
}

// runOnce executes a single monitored attempt of the spec.
func (r *Runner) runOnce(spec *Spec) (*Result, error) {
	timeout := spec.Timeout
	if r.TimeoutOverride > 0 {
		timeout = r.TimeoutOverride
	}

	type outcome struct {
		res *Result
		err error
	}
	ch := make(chan outcome, 1) // buffered: an abandoned run must not leak
	go func() {
		res, err := r.runSpec(spec)
		ch <- outcome{res, err}
	}()

	if timeout <= 0 {
		o := <-ch
		return o.res, o.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-timer.C:
		// The wedged run keeps its own Result; build a fresh one so the
		// abandoned goroutine cannot race with the caller's reads.
		err := fmt.Errorf("core: %s/%s exceeded deadline %v; run abandoned",
			spec.Suite, spec.Name, timeout)
		res := &Result{
			Benchmark: spec.Name, Suite: spec.Suite,
			Status: StatusTimeout, Err: err.Error(),
		}
		return res, err
	}
}

// runSpec is the body of Run, executed on the monitored goroutine.
func (r *Runner) runSpec(spec *Spec) (*Result, error) {
	res := &Result{Benchmark: spec.Name, Suite: spec.Suite, Status: StatusOK}

	fail := func(phase string, err error) (*Result, error) {
		res.Err = err.Error()
		res.Status = statusForError(err)
		return res, fmt.Errorf("core: %s of %s/%s: %w", phase, spec.Suite, spec.Name, err)
	}

	warmup := spec.Warmup
	if r.WarmupOverride > 0 {
		warmup = r.WarmupOverride
	}
	measured := spec.Measured
	if r.MeasuredOverride > 0 {
		measured = r.MeasuredOverride
	}
	res.Warmup = warmup

	var w Workload
	err := guard(func() error {
		var err error
		w, err = spec.Setup(r.Config)
		return err
	})
	if err != nil {
		return fail("setup", err)
	}
	defer func() {
		if c, ok := w.(Closer); ok {
			_ = guard(c.Close)
		}
	}()

	for _, p := range r.Plugins {
		p.BeforeBenchmark(spec)
	}

	runOne := func(i int, isWarmup bool) error {
		start := time.Now()
		err := guard(func() error {
			// The harness-level injection point: a fault here takes the
			// path a panicking workload takes, inside the timed region.
			if chaos.Maybe("core.iteration") {
				panic(&chaos.InjectedError{Point: "core.iteration"})
			}
			return w.RunIteration()
		})
		d := time.Since(start)
		ev := IterationEvent{Benchmark: spec.Name, Index: i, Warmup: isWarmup, Duration: d}
		for _, p := range r.Plugins {
			p.AfterIteration(ev)
		}
		if err != nil {
			return err
		}
		if !isWarmup {
			res.Durations = append(res.Durations, float64(d)/float64(time.Millisecond))
		}
		return nil
	}

	for i := 0; i < warmup; i++ {
		if err := runOne(i, true); err != nil {
			return fail("warmup", err)
		}
	}

	// Steady-state latency only: warmup samples are discarded, matching the
	// handling of iteration durations.
	lr, hasLatency := w.(LatencyReporter)
	if hasLatency {
		if h := lr.LatencyHistogram(); h != nil {
			h.Reset()
		}
	}

	recordRecovery := func() {
		if res.Profile == nil {
			return
		}
		res.Recomputes = res.Profile.Counts.Get(metrics.RddRecompute)
	}
	prof := metrics.StartProfile(spec.Suite, spec.Name)
	for i := 0; i < measured; i++ {
		if err := runOne(i, false); err != nil {
			res.Profile = prof.Stop()
			recordRecovery()
			return fail("iteration", err)
		}
	}
	res.Profile = prof.Stop()
	recordRecovery()
	if hasLatency {
		res.Latency = SummarizeLatency(lr.LatencyHistogram())
	}

	if v, ok := w.(Validator); ok {
		if err := guard(v.Validate); err != nil {
			return fail("validation", err)
		}
		res.Validated = true
	}

	for _, p := range r.Plugins {
		p.AfterBenchmark(spec, res)
	}
	return res, nil
}

// Tally counts results by status, for sweep exit summaries.
type Tally struct {
	OK, Errors, Timeouts, Panics int
	// Retried counts results that needed more than one attempt, whatever
	// their final status.
	Retried int
	// Recomputes totals the RDD recovery engine's partition recomputes
	// across the result set — nonzero only under fault injection.
	Recomputes int64
}

// TallyResults tallies the statuses of a result set.
func TallyResults(results []*Result) Tally {
	var t Tally
	for _, res := range results {
		switch res.Status {
		case StatusError:
			t.Errors++
		case StatusTimeout:
			t.Timeouts++
		case StatusPanic:
			t.Panics++
		default:
			t.OK++
		}
		if res.Attempts > 1 {
			t.Retried++
		}
		t.Recomputes += res.Recomputes
	}
	return t
}

// Total returns the number of tallied results.
func (t Tally) Total() int { return t.OK + t.Errors + t.Timeouts + t.Panics }

// AllOK reports whether every tallied run completed cleanly.
func (t Tally) AllOK() bool { return t.Total() == t.OK }

// String renders the tally as an exit summary line. The retried suffix
// appears only when some result needed retries, keeping the common line
// stable for tooling.
func (t Tally) String() string {
	s := fmt.Sprintf("%d ok, %d error, %d timeout, %d panic",
		t.OK, t.Errors, t.Timeouts, t.Panics)
	if t.Retried > 0 {
		s += fmt.Sprintf(" (%d retried)", t.Retried)
	}
	if t.Recomputes > 0 {
		s += fmt.Sprintf(" (%d recomputed)", t.Recomputes)
	}
	return s
}
