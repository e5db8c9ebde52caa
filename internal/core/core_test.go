package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func testSpec(name string, w Workload) Spec {
	return Spec{
		Name: name, Suite: "test", Description: "d",
		Warmup: 2, Measured: 3,
		Setup: func(Config) (Workload, error) { return w, nil },
	}
}

func TestConfigScale(t *testing.T) {
	c := Config{SizeFactor: 0.5}
	if got := c.Scale(10); got != 5 {
		t.Errorf("Scale(10) = %d, want 5", got)
	}
	if got := c.Scale(1); got != 1 {
		t.Errorf("Scale(1) = %d, want 1 (minimum)", got)
	}
	c2 := Config{SizeFactor: 0.001}
	if got := c2.Scale(10); got != 1 {
		t.Errorf("tiny factor Scale(10) = %d, want 1", got)
	}
}

func TestConfigRandDeterministic(t *testing.T) {
	c := DefaultConfig()
	a := c.Rand("stream-a")
	b := c.Rand("stream-a")
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same stream label should give identical sequences")
		}
	}
	x := c.Rand("stream-x").Int63()
	y := c.Rand("stream-y").Int63()
	if x == y {
		t.Error("different stream labels should (almost surely) differ")
	}
}

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	r.Register(testSpec("alpha", WorkloadFunc(func() error { return nil })))
	r.Register(testSpec("beta", WorkloadFunc(func() error { return nil })))

	if _, ok := r.Lookup("test", "alpha"); !ok {
		t.Error("alpha not found")
	}
	if _, ok := r.Lookup("test", "missing"); ok {
		t.Error("missing found")
	}
	specs := r.BySuite("test")
	if len(specs) != 2 || specs[0].Name != "alpha" || specs[1].Name != "beta" {
		t.Errorf("BySuite = %v", specNames(specs))
	}
	all := r.All()
	if len(all) != 2 {
		t.Errorf("All has %d specs", len(all))
	}
}

func specNames(specs []*Spec) []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Name
	}
	return out
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, s Spec) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		r.Register(s)
	}
	mustPanic("empty name", Spec{Suite: "s", Measured: 1, Setup: func(Config) (Workload, error) { return nil, nil }})
	mustPanic("empty suite", Spec{Name: "n", Measured: 1, Setup: func(Config) (Workload, error) { return nil, nil }})
	mustPanic("nil setup", Spec{Name: "n", Suite: "s", Measured: 1})
	mustPanic("bad iterations", Spec{Name: "n", Suite: "s", Measured: 0, Setup: func(Config) (Workload, error) { return nil, nil }})

	ok := testSpec("dup", WorkloadFunc(func() error { return nil }))
	r.Register(ok)
	mustPanic("duplicate", ok)
}

type countingWorkload struct {
	runs      int
	validated bool
	closed    bool
	failAt    int // fail on this run index (1-based), 0 = never
}

func (w *countingWorkload) RunIteration() error {
	w.runs++
	if w.failAt > 0 && w.runs == w.failAt {
		return errors.New("boom")
	}
	return nil
}
func (w *countingWorkload) Validate() error { w.validated = true; return nil }
func (w *countingWorkload) Close() error    { w.closed = true; return nil }

func TestRunnerPhases(t *testing.T) {
	w := &countingWorkload{}
	spec := testSpec("phases", w)
	r := NewRunner()
	res, err := r.Run(&spec)
	if err != nil {
		t.Fatal(err)
	}
	if w.runs != 5 {
		t.Errorf("total runs = %d, want 5 (2 warmup + 3 measured)", w.runs)
	}
	if len(res.Durations) != 3 {
		t.Errorf("measured durations = %d, want 3", len(res.Durations))
	}
	if !w.validated || !res.Validated {
		t.Error("workload was not validated")
	}
	if !w.closed {
		t.Error("workload was not closed")
	}
	if res.Profile == nil {
		t.Fatal("nil profile")
	}
	if res.Profile.Suite != "test" || res.Profile.Benchmark != "phases" {
		t.Errorf("profile identity %s/%s", res.Profile.Suite, res.Profile.Benchmark)
	}
	for _, d := range res.Durations {
		if d < 0 {
			t.Errorf("negative duration %g", d)
		}
	}
}

func TestRunnerOverrides(t *testing.T) {
	w := &countingWorkload{}
	spec := testSpec("ovr", w)
	r := NewRunner()
	r.WarmupOverride = 1
	r.MeasuredOverride = 1
	if _, err := r.Run(&spec); err != nil {
		t.Fatal(err)
	}
	if w.runs != 2 {
		t.Errorf("runs = %d, want 2", w.runs)
	}
}

func TestRunnerErrorPaths(t *testing.T) {
	// Setup failure.
	bad := Spec{Name: "bad", Suite: "test", Warmup: 1, Measured: 1,
		Setup: func(Config) (Workload, error) { return nil, errors.New("no setup") }}
	r := NewRunner()
	res, err := r.Run(&bad)
	if err == nil || !strings.Contains(res.Err, "no setup") {
		t.Errorf("setup error not propagated: err=%v res.Err=%q", err, res.Err)
	}

	// Warmup failure: nothing after it runs, and no profile is taken.
	w1 := &countingWorkload{failAt: 1}
	s1 := testSpec("failwarm", w1)
	res1, err := r.Run(&s1)
	if err == nil || res1.Status != StatusError {
		t.Errorf("warmup failure: status=%q err=%v", res1.Status, err)
	}
	if w1.runs != 1 {
		t.Errorf("workload ran %d times past a warmup failure, want 1", w1.runs)
	}
	if res1.Profile != nil {
		t.Error("no profile expected for a warmup failure")
	}
	if !w1.closed {
		t.Error("failed workload not closed")
	}

	// Steady-state failure: the profile and the iterations measured
	// before it are kept.
	w2 := &countingWorkload{failAt: 4} // 2 warmup + 2nd measured
	s2 := testSpec("failsteady", w2)
	res2, err := r.Run(&s2)
	if err == nil || res2.Status != StatusError || !strings.Contains(res2.Err, "boom") {
		t.Errorf("steady-state failure: status=%q err=%v", res2.Status, err)
	}
	if res2.Profile == nil {
		t.Error("profile should be captured even on failure")
	}
	if len(res2.Durations) != 1 {
		t.Errorf("durations before the failure = %d, want 1", len(res2.Durations))
	}
}

type recordingPlugin struct {
	Base
	before, after int
	iterations    []IterationEvent
}

func (p *recordingPlugin) BeforeBenchmark(*Spec)           { p.before++ }
func (p *recordingPlugin) AfterIteration(e IterationEvent) { p.iterations = append(p.iterations, e) }
func (p *recordingPlugin) AfterBenchmark(*Spec, *Result)   { p.after++ }

func TestPlugins(t *testing.T) {
	w := &countingWorkload{}
	spec := testSpec("plug", w)
	p := &recordingPlugin{}
	r := NewRunner()
	r.Use(p)
	if _, err := r.Run(&spec); err != nil {
		t.Fatal(err)
	}
	if p.before != 1 || p.after != 1 {
		t.Errorf("plugin calls: before=%d after=%d", p.before, p.after)
	}
	if len(p.iterations) != 5 {
		t.Fatalf("iteration events = %d, want 5", len(p.iterations))
	}
	warmups := 0
	for _, e := range p.iterations {
		if e.Warmup {
			warmups++
		}
	}
	if warmups != 2 {
		t.Errorf("warmup events = %d, want 2", warmups)
	}
}

func TestRunAll(t *testing.T) {
	r := NewRunner()
	good := testSpec("good", &countingWorkload{})
	bad := testSpec("bad", &countingWorkload{failAt: 1})
	var results []*Result
	var firstErr error
	for _, s := range []*Spec{&good, &bad} {
		res, err := r.Run(s)
		results = append(results, res)
		if firstErr == nil {
			firstErr = err
		}
	}
	if firstErr == nil {
		t.Error("want error from bad spec")
	}
	if len(results) != 2 || results[0] == nil || results[1] == nil {
		t.Fatalf("results = %v, want 2 (all attempted)", results)
	}
}

func TestResultJSON(t *testing.T) {
	res := &Result{Benchmark: "b", Suite: "s", Durations: []float64{1, 2, 3}}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"benchmark": "b"`, `"steadyStateMillis"`} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("JSON missing %q:\n%s", want, buf.String())
		}
	}
	var back Result
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Durations, res.Durations) {
		t.Errorf("steadyStateMillis round-trips to %v, want %v", back.Durations, res.Durations)
	}
}

func TestWorkloadFunc(t *testing.T) {
	called := false
	w := WorkloadFunc(func() error { called = true; return nil })
	if err := w.RunIteration(); err != nil || !called {
		t.Error("WorkloadFunc did not run")
	}
}

func TestGlobalRegister(t *testing.T) {
	name := fmt.Sprintf("global-%d", len(Global.All()))
	Register(Spec{
		Name: name, Suite: "test-global", Measured: 1,
		Setup: func(Config) (Workload, error) {
			return WorkloadFunc(func() error { return nil }), nil
		},
	})
	if _, ok := Global.Lookup("test-global", name); !ok {
		t.Error("global registration failed")
	}
}
