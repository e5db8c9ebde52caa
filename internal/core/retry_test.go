package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// flaky fails its first n whole runs (every iteration of them), then runs
// clean: the shape Runner.Retries exists for.
type flaky struct {
	failRuns  atomic.Int32
	runStarts atomic.Int32
	inRun     atomic.Bool
}

func (f *flaky) workload() WorkloadFunc {
	return func() error {
		if !f.inRun.Swap(true) {
			// First iteration of a fresh attempt.
			f.runStarts.Add(1)
		}
		if f.runStarts.Load() <= f.failRuns.Load() {
			f.inRun.Store(false)
			return errors.New("transient failure")
		}
		return nil
	}
}

func retrySpec(name string, w Workload) Spec {
	return Spec{
		Name: name, Suite: "test", Description: "d",
		Warmup: 1, Measured: 2,
		Setup: func(Config) (Workload, error) { return w, nil },
	}
}

// retryRunner returns a runner that re-runs a failed run up to n times.
func retryRunner(n int) *Runner {
	r := NewRunner()
	r.Retries = n
	return r
}

func TestRetriesRecoverTransientFailure(t *testing.T) {
	f := &flaky{}
	f.failRuns.Store(2)
	spec := retrySpec("flaky", f.workload())
	res, err := retryRunner(3).Run(&spec)
	if err != nil {
		t.Fatalf("run with retries failed: %v", err)
	}
	if res.Status != StatusOK {
		t.Errorf("status = %q, want ok", res.Status)
	}
	if res.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (two failures + one clean)", res.Attempts)
	}
}

func TestRetriesExhaustedKeepsLastFailure(t *testing.T) {
	spec := retrySpec("doomed", WorkloadFunc(func() error {
		return errors.New("permanent failure")
	}))
	res, err := retryRunner(2).Run(&spec)
	if err == nil {
		t.Fatal("run returned nil error after exhausting retries")
	}
	if res.Status != StatusError {
		t.Errorf("status = %q, want error", res.Status)
	}
	if res.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3 (1 + 2 retries)", res.Attempts)
	}
}

func TestNoRetriesByDefault(t *testing.T) {
	var runs atomic.Int32
	spec := retrySpec("once", WorkloadFunc(func() error {
		runs.Add(1)
		return errors.New("fails")
	}))
	res, _ := NewRunner().Run(&spec)
	if res.Attempts != 1 {
		t.Errorf("Attempts = %d, want 1 without retries", res.Attempts)
	}
	if runs.Load() != 1 {
		t.Errorf("workload ran %d iterations, want 1 (fail on first warmup)", runs.Load())
	}
}

func TestRetriesCoverPanics(t *testing.T) {
	// A panicking attempt is retried like an erroring one.
	var calls atomic.Int32
	spec := retrySpec("panic-retry", WorkloadFunc(func() error {
		if calls.Add(1) == 1 {
			panic("first attempt dies")
		}
		return nil
	}))
	res, err := retryRunner(1).Run(&spec)
	if err != nil || res.Status != StatusOK {
		t.Fatalf("retried panic run = (%q, %v), want ok", res.Status, err)
	}
	if res.Attempts != 2 {
		t.Errorf("Attempts = %d, want 2", res.Attempts)
	}
}

func TestTallyCountsRetriedRuns(t *testing.T) {
	results := []*Result{
		{Status: StatusOK, Attempts: 1},
		{Status: StatusOK, Attempts: 3},
		{Status: StatusError, Attempts: 2},
	}
	tally := TallyResults(results)
	if tally.Retried != 2 {
		t.Errorf("Retried = %d, want 2", tally.Retried)
	}
	s := tally.String()
	if !strings.Contains(s, "(2 retried)") {
		t.Errorf("Tally.String() = %q, want retried suffix", s)
	}

	// Without retried runs the summary line stays in its legacy shape.
	clean := TallyResults([]*Result{{Status: StatusOK, Attempts: 1}})
	if s := clean.String(); strings.Contains(s, "retried") {
		t.Errorf("clean Tally.String() = %q, want no retried suffix", s)
	}
}
