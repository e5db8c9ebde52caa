package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"renaissance/internal/chaos"
)

// --- panic isolation ---

func TestRunPanicRecovery(t *testing.T) {
	w := WorkloadFunc(func() error { panic("kaboom") })
	spec := testSpec("panicky", w)
	r := NewRunner()
	res, err := r.Run(&spec)
	if err == nil {
		t.Fatal("want error from panicking workload")
	}
	if res.Status != StatusPanic {
		t.Errorf("status = %q, want %q", res.Status, StatusPanic)
	}
	if !strings.Contains(res.Err, "kaboom") {
		t.Errorf("res.Err missing panic value: %q", res.Err)
	}
	if !strings.Contains(res.Err, "goroutine") {
		t.Errorf("res.Err missing stack trace: %q", res.Err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "kaboom" {
		t.Errorf("returned error does not wrap PanicError: %v", err)
	}
}

type panickySetup struct{}

func (panickySetup) RunIteration() error { return nil }

func TestRunPanicInSetupAndValidate(t *testing.T) {
	r := NewRunner()

	setup := Spec{Name: "setup-panic", Suite: "test", Warmup: 1, Measured: 1,
		Setup: func(Config) (Workload, error) { panic("setup blew up") }}
	res, err := r.Run(&setup)
	if err == nil || res.Status != StatusPanic {
		t.Errorf("setup panic: status=%q err=%v", res.Status, err)
	}

	val := testSpec("validate-panic", &panicValidator{})
	res, err = r.Run(&val)
	if err == nil || res.Status != StatusPanic {
		t.Errorf("validation panic: status=%q err=%v", res.Status, err)
	}
	if res.Validated {
		t.Error("panicked validation marked validated")
	}
}

type panicValidator struct{}

func (*panicValidator) RunIteration() error { return nil }
func (*panicValidator) Validate() error     { panic("bad state") }

// A panicking Close must not mask a successful run.
type panicCloser struct{ ran int }

func (w *panicCloser) RunIteration() error { w.ran++; return nil }
func (w *panicCloser) Close() error        { panic("close failed") }

func TestRunPanicInCloseIsContained(t *testing.T) {
	w := &panicCloser{}
	spec := testSpec("close-panic", w)
	res, err := r0().Run(&spec)
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Status != StatusOK {
		t.Errorf("status = %q, want ok", res.Status)
	}
	if w.ran != 5 {
		t.Errorf("ran = %d, want 5", w.ran)
	}
}

func r0() *Runner { return NewRunner() }

// --- deadlines ---

func TestRunTimeoutOverride(t *testing.T) {
	w := WorkloadFunc(func() error { time.Sleep(10 * time.Second); return nil })
	spec := testSpec("sleepy", w)
	r := NewRunner()
	r.TimeoutOverride = 50 * time.Millisecond
	start := time.Now()
	res, err := r.Run(&spec)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Run took %v; deadline not enforced", elapsed)
	}
	if err == nil {
		t.Fatal("want timeout error")
	}
	if res.Status != StatusTimeout {
		t.Errorf("status = %q, want %q", res.Status, StatusTimeout)
	}
	if res.Benchmark != "sleepy" || res.Suite != "test" {
		t.Errorf("timeout result identity %s/%s", res.Suite, res.Benchmark)
	}
	if !strings.Contains(res.Err, "deadline") {
		t.Errorf("res.Err = %q", res.Err)
	}
}

func TestRunSpecTimeoutDefault(t *testing.T) {
	w := WorkloadFunc(func() error { time.Sleep(10 * time.Second); return nil })
	spec := testSpec("sleepy-spec", w)
	spec.Timeout = 50 * time.Millisecond
	res, err := NewRunner().Run(&spec)
	if err == nil || res.Status != StatusTimeout {
		t.Errorf("spec timeout not enforced: status=%q err=%v", res.Status, err)
	}
}

func TestRunNoTimeoutFastWorkload(t *testing.T) {
	spec := testSpec("quick", WorkloadFunc(func() error { return nil }))
	spec.Timeout = 10 * time.Second
	res, err := NewRunner().Run(&spec)
	if err != nil || res.Status != StatusOK {
		t.Errorf("fast workload under deadline: status=%q err=%v", res.Status, err)
	}
}

// --- graceful degradation ---

func TestRunAllContinuesPastFailures(t *testing.T) {
	panicky := testSpec("p", WorkloadFunc(func() error { panic("x") }))
	sleepy := testSpec("s", WorkloadFunc(func() error {
		time.Sleep(10 * time.Second)
		return nil
	}))
	sleepy.Timeout = 50 * time.Millisecond
	erroring := testSpec("e", WorkloadFunc(func() error { return errors.New("bad") }))
	good := &countingWorkload{}
	goodSpec := testSpec("g", good)

	r := NewRunner()
	var results []*Result
	var firstErr error
	for _, s := range []*Spec{&panicky, &sleepy, &erroring, &goodSpec} {
		res, err := r.Run(s)
		results = append(results, res)
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil || !strings.Contains(firstErr.Error(), "x") {
		t.Errorf("first error = %v, want the first spec's panic", firstErr)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d, want 4", len(results))
	}
	for i, want := range []Status{StatusPanic, StatusTimeout, StatusError, StatusOK} {
		if results[i].Status != want {
			t.Errorf("results[%d].Status = %q, want %q", i, results[i].Status, want)
		}
	}
	if good.runs != 5 {
		t.Errorf("later spec ran %d iterations, want 5 (sweep must continue)", good.runs)
	}

	tally := TallyResults(results)
	if tally.OK != 1 || tally.Errors != 1 || tally.Timeouts != 1 || tally.Panics != 1 {
		t.Errorf("tally = %+v", tally)
	}
	if tally.AllOK() || tally.Total() != 4 {
		t.Errorf("tally summary wrong: %s", tally)
	}
	if s := tally.String(); !strings.Contains(s, "1 ok") || !strings.Contains(s, "1 panic") {
		t.Errorf("tally string = %q", s)
	}
}

// --- the harness's chaos point ---

// disarmIteration turns core.iteration off after the first iteration, so
// the point fires exactly once.
type disarmIteration struct{ Base }

func (disarmIteration) AfterIteration(IterationEvent) { chaos.SetRate("core.iteration", 0) }

// core.iteration fires inside the guarded, timed region of an iteration,
// before the workload runs: the run ends as a workload panic would, with
// the *chaos.InjectedError as the panic value, and Retries re-runs it.
func TestChaosIterationPoint(t *testing.T) {
	t.Cleanup(func() { chaos.Configure(0, 0) })
	chaos.Configure(1, 0)
	chaos.SetRate("core.iteration", 1)
	spec := testSpec("chaos-panic", &countingWorkload{})
	res, err := NewRunner().Run(&spec)
	var pe *PanicError
	if res.Status != StatusPanic || !errors.As(err, &pe) {
		t.Fatalf("status=%q err=%v, want a recovered panic", res.Status, err)
	}
	if inj, ok := pe.Value.(*chaos.InjectedError); !ok || inj.Point != "core.iteration" {
		t.Errorf("panic value = %v, want the core.iteration InjectedError", pe.Value)
	}

	var runs atomic.Int32
	spec = testSpec("chaos-retry", WorkloadFunc(func() error {
		runs.Add(1)
		time.Sleep(2 * time.Millisecond)
		return nil
	}))
	r := NewRunner()
	r.Retries = 1
	r.Use(disarmIteration{})
	res, err = r.Run(&spec)
	if err != nil || res.Status != StatusOK || res.Attempts != 2 {
		t.Fatalf("status=%q attempts=%d err=%v, want ok after one retry", res.Status, res.Attempts, err)
	}
	if runs.Load() != 5 {
		t.Errorf("workload ran %d iterations, want 5: the fault fires before the body", runs.Load())
	}
	for _, d := range res.Durations {
		if d < 2 {
			t.Errorf("iteration timed at %.2fms, want >= 2ms: the timed region covers the body", d)
		}
	}
}

// --- statuses on classic error paths ---

func TestStatusOnSetupAndValidationFailure(t *testing.T) {
	r := NewRunner()
	bad := Spec{Name: "bad-setup", Suite: "test", Warmup: 1, Measured: 1,
		Setup: func(Config) (Workload, error) { return nil, errors.New("no resources") }}
	res, err := r.Run(&bad)
	if err == nil || res.Status != StatusError {
		t.Errorf("setup failure: status=%q err=%v", res.Status, err)
	}

	v := &failingValidator{}
	spec := testSpec("bad-validate", v)
	res, err = r.Run(&spec)
	if err == nil || res.Status != StatusError || res.Validated {
		t.Errorf("validation failure: status=%q validated=%v err=%v", res.Status, res.Validated, err)
	}
	if !v.closed {
		t.Error("workload not closed after validation failure")
	}
}

type failingValidator struct{ closed bool }

func (v *failingValidator) RunIteration() error { return nil }
func (v *failingValidator) Validate() error     { return errors.New("checksum mismatch") }
func (v *failingValidator) Close() error        { v.closed = true; return nil }

func TestResultJSONStatusAndProfile(t *testing.T) {
	spec := testSpec("json-ok", &countingWorkload{})
	res, err := NewRunner().Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"status": "ok"`, `"profile"`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON missing %s:\n%s", want, out)
		}
	}
	if strings.Contains(out, `"Profile"`) {
		t.Errorf("JSON still has capitalized Profile key:\n%s", out)
	}

	// Profile is omitted (not null) when absent, keeping the schema clean
	// for the analyze tooling.
	empty := &Result{Benchmark: "b", Suite: "s", Status: StatusTimeout}
	buf.Reset()
	if err := empty.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "profile") {
		t.Errorf("absent profile serialized:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), `"status": "timeout"`) {
		t.Errorf("status missing:\n%s", buf.String())
	}
}
