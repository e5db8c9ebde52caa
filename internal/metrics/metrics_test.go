package metrics

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMetricNames(t *testing.T) {
	want := []string{
		"synch", "wait", "notify", "atomic", "park", "cpu",
		"cachemiss", "object", "array", "method", "idynamic", "deadletter",
		"stmabort", "stmextend",
	}
	for i, w := range want {
		if got := Metric(i).String(); got != w {
			t.Errorf("Metric(%d).String() = %q, want %q", i, got, w)
		}
	}
	if Metric(-1).String() != "metric(-1)" {
		t.Errorf("out-of-range metric name = %q", Metric(-1).String())
	}
}

func TestAllMetrics(t *testing.T) {
	ms := AllMetrics()
	if len(ms) != int(NumMetrics) {
		t.Fatalf("AllMetrics() has %d entries, want %d", len(ms), NumMetrics)
	}
	for i, m := range ms {
		if int(m) != i {
			t.Errorf("AllMetrics()[%d] = %v", i, m)
		}
	}
}

func TestCounted(t *testing.T) {
	for _, m := range AllMetrics() {
		want := m != CPU
		if got := m.Counted(); got != want {
			t.Errorf("%v.Counted() = %v, want %v", m, got, want)
		}
	}
}

func TestRecorderAddGet(t *testing.T) {
	var r Recorder
	r.Add(Atomic, 5)
	r.Add(Atomic, 2)
	r.Add(Synch, 1)
	if got := r.Get(Atomic); got != 7 {
		t.Errorf("Get(Atomic) = %d, want 7", got)
	}
	if got := r.Get(Synch); got != 1 {
		t.Errorf("Get(Synch) = %d, want 1", got)
	}
	if got := r.Get(Park); got != 0 {
		t.Errorf("Get(Park) = %d, want 0", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	var r Recorder
	r.Add(Object, 10)
	before := r.Snapshot()
	r.Add(Object, 5)
	r.Add(Method, 3)
	d := r.Snapshot().Delta(before)
	if got := d.Get(Object); got != 5 {
		t.Errorf("delta Object = %d, want 5", got)
	}
	if got := d.Get(Method); got != 3 {
		t.Errorf("delta Method = %d, want 3", got)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var r Recorder
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				r.Add(Atomic, 1)
			}
		}()
	}
	wg.Wait()
	if got := r.Get(Atomic); got != workers*perWorker {
		t.Errorf("concurrent count = %d, want %d", got, workers*perWorker)
	}
}

func TestDefaultWrappers(t *testing.T) {
	base := Default.Snapshot()
	IncSynch()
	AddSynch(2)
	IncNotify()
	IncAtomic()
	AddAtomic(2)
	IncPark()
	IncObject()
	AddObject(2)
	IncArray()
	AddArray(3)
	IncMethod()
	AddMethod(4)
	IncIDynamic()
	AddIDynamic(5)
	d := Default.Snapshot().Delta(base)
	checks := map[Metric]int64{
		Synch: 3, Notify: 1, Atomic: 3, Park: 1,
		Object: 3, Array: 4, Method: 5, IDynamic: 6,
	}
	for m, want := range checks {
		if got := d.Get(m); got != want {
			t.Errorf("delta %v = %d, want %d", m, got, want)
		}
	}
}

func TestRefCycles(t *testing.T) {
	got := RefCycles(time.Second)
	want := 1e9 * NominalGHz
	if got != want {
		t.Errorf("RefCycles(1s) = %g, want %g", got, want)
	}
}

func TestProfileRate(t *testing.T) {
	p := &Profile{RefCycles: 1000, CPUUtil: 42.5}
	p.Counts.Counts[Atomic] = 500
	if got := p.Rate(Atomic); got != 0.5 {
		t.Errorf("Rate(Atomic) = %g, want 0.5", got)
	}
	if got := p.Rate(CPU); got != 42.5 {
		t.Errorf("Rate(CPU) = %g, want 42.5", got)
	}
	zero := &Profile{}
	if got := zero.Rate(Atomic); got != 0 {
		t.Errorf("zero-cycle Rate = %g, want 0", got)
	}
}

func TestPaperMetrics(t *testing.T) {
	ms := PaperMetrics()
	want := []string{"synch", "wait", "notify", "atomic", "park", "cpu",
		"cachemiss", "object", "array", "method", "idynamic"}
	if len(ms) != len(want) {
		t.Fatalf("PaperMetrics() has %d entries, want %d", len(ms), len(want))
	}
	for i, m := range ms {
		if m.String() != want[i] {
			t.Errorf("PaperMetrics()[%d] = %v, want %s", i, m, want[i])
		}
	}
}

func TestProfilerStop(t *testing.T) {
	p := StartProfile("test", "bench")
	IncAtomic()
	buf := make([]byte, 1<<16) // force measurable allocation for the proxy
	_ = buf
	time.Sleep(time.Millisecond)
	prof := p.Stop()
	if prof.Suite != "test" || prof.Benchmark != "bench" {
		t.Errorf("profile identity = %s/%s", prof.Suite, prof.Benchmark)
	}
	if prof.Counts.Get(Atomic) < 1 {
		t.Errorf("profile atomic count = %d, want >= 1", prof.Counts.Get(Atomic))
	}
	if prof.RefCycles <= 0 {
		t.Errorf("RefCycles = %g, want > 0", prof.RefCycles)
	}
	if prof.Elapsed <= 0 {
		t.Errorf("Elapsed = %v, want > 0", prof.Elapsed)
	}
	if prof.CPUUtil < 0 || prof.CPUUtil > 100 {
		t.Errorf("CPUUtil = %g, want within [0,100]", prof.CPUUtil)
	}
	if s := prof.String(); s == "" {
		t.Error("empty profile string")
	}
}

func TestSortProfiles(t *testing.T) {
	ps := []*Profile{
		{Suite: "b", Benchmark: "x"},
		{Suite: "a", Benchmark: "z"},
		{Suite: "a", Benchmark: "y"},
	}
	SortProfiles(ps)
	order := []string{"a/y", "a/z", "b/x"}
	for i, want := range order {
		got := ps[i].Suite + "/" + ps[i].Benchmark
		if got != want {
			t.Errorf("sorted[%d] = %s, want %s", i, got, want)
		}
	}
}

// Property: delta of a snapshot with itself is zero, and delta is
// anti-symmetric in each coordinate.
func TestSnapshotDeltaProperties(t *testing.T) {
	f := func(a, b [NumMetrics]int64) bool {
		sa := Snapshot{Counts: a}
		sb := Snapshot{Counts: b}
		zero := sa.Delta(sa)
		for _, c := range zero.Counts {
			if c != 0 {
				return false
			}
		}
		ab := sa.Delta(sb)
		ba := sb.Delta(sa)
		for i := range ab.Counts {
			if ab.Counts[i] != -ba.Counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
