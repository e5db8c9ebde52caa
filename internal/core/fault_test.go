package core

import (
	"errors"
	"strings"
	"testing"
	"time"
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

// --- FaultInjector-driven error paths ---

func TestFaultInjectorErrorMidSteadyState(t *testing.T) {
	w := &countingWorkload{}
	spec := testSpec("inj-err", w)
	fi := NewFaultInjector(Fault{Benchmark: "inj-err", Iteration: 1, Err: errors.New("disk on fire")})
	r := NewRunner()
	r.Use(fi)
	res, err := r.Run(&spec)
	if err == nil || res.Status != StatusError {
		t.Fatalf("status=%q err=%v", res.Status, err)
	}
	if !strings.Contains(res.Err, "disk on fire") {
		t.Errorf("res.Err = %q", res.Err)
	}
	if res.Profile == nil {
		t.Error("profile should be attached on mid-steady-state failure")
	}
	if len(res.Durations) != 1 {
		t.Errorf("durations before failure = %d, want 1", len(res.Durations))
	}
	if fi.Injected() != 1 {
		t.Errorf("injected = %d, want 1", fi.Injected())
	}
}

func TestFaultInjectorWarmupError(t *testing.T) {
	w := &countingWorkload{}
	spec := testSpec("inj-warm", w)
	r := NewRunner()
	r.Use(NewFaultInjector(Fault{Iteration: 0, Warmup: true, Err: errors.New("cold start")}))
	res, err := r.Run(&spec)
	if err == nil || res.Status != StatusError {
		t.Fatalf("status=%q err=%v", res.Status, err)
	}
	if res.Profile != nil {
		t.Error("no profile expected for a warmup failure")
	}
	if w.runs != 0 {
		t.Errorf("workload ran %d times past an injected warmup fault", w.runs)
	}
}

func TestFaultInjectorPanic(t *testing.T) {
	spec := testSpec("inj-panic", &countingWorkload{})
	r := NewRunner()
	r.Use(NewFaultInjector(Fault{Iteration: -1, Panic: "injected chaos"}))
	res, err := r.Run(&spec)
	if err == nil || res.Status != StatusPanic {
		t.Fatalf("status=%q err=%v", res.Status, err)
	}
	if !strings.Contains(res.Err, "injected chaos") {
		t.Errorf("res.Err = %q", res.Err)
	}
}

func TestFaultInjectorDelayTriggersDeadline(t *testing.T) {
	spec := testSpec("inj-slow", &countingWorkload{})
	fi := NewFaultInjector(Fault{Delay: 10 * time.Second, Iteration: -1})
	r := NewRunner()
	r.Use(fi)
	r.TimeoutOverride = 50 * time.Millisecond
	res, err := r.Run(&spec)
	if err == nil || res.Status != StatusTimeout {
		t.Fatalf("status=%q err=%v", res.Status, err)
	}
}

func TestFaultInjectorDelayCountsInDuration(t *testing.T) {
	spec := testSpec("inj-delay", &countingWorkload{})
	fi := NewFaultInjector(Fault{Delay: 20 * time.Millisecond, Iteration: 0})
	r := NewRunner()
	r.Use(fi)
	res, err := r.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Durations[0] < 15 {
		t.Errorf("delayed iteration took %.2fms, want >= 20ms", res.Durations[0])
	}
}

func TestFaultInjectorMatching(t *testing.T) {
	fi := NewFaultInjector(
		Fault{Suite: "other", Iteration: -1, Err: errors.New("wrong suite")},
		Fault{Benchmark: "someone-else", Iteration: -1, Err: errors.New("wrong bench")})
	w := &countingWorkload{}
	spec := testSpec("untouched", w)
	r := NewRunner()
	r.Use(fi)
	res, err := r.Run(&spec)
	if err != nil || res.Status != StatusOK {
		t.Fatalf("non-matching faults fired: status=%q err=%v", res.Status, err)
	}
	if fi.Injected() != 0 {
		t.Errorf("injected = %d, want 0", fi.Injected())
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
