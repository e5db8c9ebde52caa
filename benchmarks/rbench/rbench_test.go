package rbench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
	"time"

	"renaissance/internal/core"
)

// The workload table must name every registered Renaissance benchmark
// exactly once; adding or renaming a spec without placing it in a workload
// fails here.
func TestTableCoversEveryBenchmarkOnce(t *testing.T) {
	seen := map[string]int{}
	for _, wl := range Workloads {
		for _, op := range wl.Ops {
			seen[op.Bench]++
			if op.Size <= 0 || op.Reps < 1 {
				t.Errorf("%s/%s: size %g reps %d", wl.Name, op.Bench, op.Size, op.Reps)
			}
		}
		if wl.Rounds < 10 {
			t.Errorf("%s: %d measured rounds is too few for a median", wl.Name, wl.Rounds)
		}
	}
	specs := core.Global.BySuite(core.SuiteRenaissance)
	if len(specs) != 21 {
		t.Errorf("%d renaissance specs registered, want 21", len(specs))
	}
	for _, s := range specs {
		if seen[s.Name] != 1 {
			t.Errorf("benchmark %s appears %d times in the workload table, want 1", s.Name, seen[s.Name])
		}
		delete(seen, s.Name)
	}
	for name := range seen {
		t.Errorf("workload table names %s, which is not a registered benchmark", name)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// BENCHMARK.json is what the driver reads and this package is what runs;
// they must describe the same workloads and metrics.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != DefaultSeconds {
		t.Errorf("run_seconds %d, DefaultSeconds %d", b.RunSeconds, DefaultSeconds)
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(b.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the table %q", i, b.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := map[string]bool{}
	check := func(kind string, got []jsonMetric, want []MetricDef, limit int) {
		if len(got) != len(want) || len(want) > limit {
			t.Fatalf("%s: %d in BENCHMARK.json, %d in code, limit %d", kind, len(got), len(want), limit)
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, code %+v", kind, i, g, d)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || used[d.Name] {
				t.Errorf("%s %s (%s): bad or repeated name or unit", kind, d.Name, d.Unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, d.Name, g.Better)
			}
			used[d.Name] = true
		}
	}
	check("end_to_end", b.EndToEnd, EndToEnd, 16)
	check("per_layer", b.PerLayer, PerLayer(), 128)
	if EndToEnd[0].Name != "setup_s" || EndToEnd[0].Unit != "s" {
		t.Errorf("the first end-to-end metric must be setup_s in s")
	}
	for _, d := range EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct{ xs, want []float64 }{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, []float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, []float64{1, 2, 3}},
		{[]float64{3, 1}, []float64{0.5, 2, 3.5}},
		{[]float64{5, 1, 2, 9, 4, 7}, []float64{1.75, 4.5, 7.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.want[0] || q2 != c.want[1] || q3 != c.want[2] {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

// round_ms is the sum of the per-op medians, not the median of the
// per-round sums: a slow sample of one op must not drag the others in.
func TestRoundMSIsSumOfOpMedians(t *testing.T) {
	p := phase{perOp: make([][]float64, 2)}
	for _, r := range [][2]time.Duration{{10, 100}, {30, 300}, {20, 200}} {
		p.add(5*time.Millisecond, []sample{{wall: r[0] * time.Millisecond}, {wall: r[1] * time.Millisecond}}, len(p.traced)%2 == 1)
	}
	if got := p.roundMS(allRounds); got != 20+200 {
		t.Errorf("roundMS over all rounds = %g, want 220", got)
	}
	if got := p.roundMS(tracedRounds); got != 30+300 {
		t.Errorf("roundMS over the traced round = %g, want 330", got)
	}
	if got := p.roundMS(untracedRounds); got != 15+150 {
		t.Errorf("roundMS over the untraced rounds = %g, want 165", got)
	}
	if want := []float64{110, 330, 220}; !slices.Equal(p.roundSum, want) {
		t.Errorf("round sums %v, want %v", p.roundSum, want)
	}
}

func TestSelfTimeAndRoundMSFromSpans(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []Span{
		{ID: 1, Parent: 0, Name: "run", StartNS: 0, EndNS: 100 * ms},
		{ID: 2, Parent: 1, Name: "measure", StartNS: 10 * ms, EndNS: 90 * ms},
		{ID: 3, Parent: 2, Name: "round", StartNS: 10 * ms, EndNS: 50 * ms},
		{ID: 4, Parent: 3, Name: "op.a", StartNS: 15 * ms, EndNS: 25 * ms}, // 10
		{ID: 5, Parent: 3, Name: "op.b", StartNS: 25 * ms, EndNS: 45 * ms}, // 20
		{ID: 6, Parent: 2, Name: "round", StartNS: 50 * ms, EndNS: 90 * ms},
		{ID: 7, Parent: 6, Name: "op.a", StartNS: 52 * ms, EndNS: 66 * ms},  // 14
		{ID: 8, Parent: 6, Name: "op.b", StartNS: 60 * ms, EndNS: 100 * ms}, // overlaps op.a, overruns the round
		{ID: 9, Parent: 1, Name: "tour", StartNS: 90 * ms, EndNS: 100 * ms},
		{ID: 10, Parent: 9, Name: "op.c", StartNS: 91 * ms, EndNS: 99 * ms}, // not under measure
	}
	self := SelfTimes(spans)
	for id, want := range map[int]int64{1: 10 * ms, 2: 0, 3: 10 * ms, 4: 10 * ms, 6: 2 * ms, 9: 2 * ms} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d ns, want %d", id, self[id], want)
		}
	}
	sum, med := RoundMSFromSpans(spans)
	if med["op.a"] != 12 || med["op.b"] != 30 || len(med) != 2 || sum != 42 {
		t.Errorf("RoundMSFromSpans = %g %v, want 42 from op.a 12 and op.b 30", sum, med)
	}
	var buf bytes.Buffer
	Explain(&buf, spans)
	if !bytes.Contains(buf.Bytes(), []byte("42.000")) {
		t.Errorf("Explain does not print the recomputed round_ms:\n%s", buf.String())
	}
}

func TestHistQuantile(t *testing.T) {
	buckets := []float64{0, 1, 2, 4, math.Inf(1)}
	if got := histQuantile(buckets, []uint64{0, 98, 1, 1}, 0.99); got != 4 {
		t.Errorf("p99 = %g, want the 2-4 bucket's upper edge", got)
	}
	if got := histQuantile(buckets, []uint64{0, 98, 1, 1}, 1); got != 4 {
		t.Errorf("max = %g, want the infinite bucket's lower edge", got)
	}
	if got := histQuantile(buckets, []uint64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram gave %g", got)
	}
}

// Every workload still sets up, runs and validates at a fiftieth of its
// size, and prints exactly the end-to-end metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range Workloads {
		_, res, spans, err := Run(Options{Workload: wl.Name, Seed: 7, Seconds: DefaultSeconds, Scale: 0.02, Rounds: 1})
		if err != nil {
			t.Fatal(err)
		}
		// The set-up episodes, four warm-up rounds (one inside the last
		// episode), one measured round, then a Validate per op.
		want := len(wl.Ops) * (2*SetupEpisodes + (WarmupRounds - 1) + 1 + 1)
		if !res.Correct || res.Failed != 0 || res.Attempted != want {
			t.Errorf("%s: correct=%v failed=%d attempted=%d, want %d samples", wl.Name, res.Correct, res.Failed, res.Attempted, want)
		}
		if len(spans) != 0 {
			t.Errorf("%s: an untraced run recorded %d spans", wl.Name, len(spans))
		}
		checkMetrics(t, wl.Name, res, EndToEnd, true)
	}
}

func checkMetrics(t *testing.T, run string, res *Result, want []MetricDef, positive bool) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", run, len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (positive && m.Value <= 0) {
			t.Errorf("%s: metric %s = %+v (present %v), want a finite value in %s", run, d.Name, m, ok, d.Unit)
		}
	}
}

// A traced run prints every per-layer metric, tours the other workloads'
// ops, and writes spans from which round_ms can be recomputed.
func TestSmokeTraced(t *testing.T) {
	det, res, spans, err := Run(Options{Workload: "compiler", Seed: 7, Seconds: DefaultSeconds, Trace: true, Scale: 0.02, Rounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("failed samples: %v", det.Errors)
	}
	checkMetrics(t, "compiler traced", res, PerLayer(), false)
	for _, zero := range []string{"prof.deadletter", "prof.rddrecompute", "netstack.open_fail_ratio"} {
		if v := res.Metrics[zero].Value; v != 0 {
			t.Errorf("%s = %g in a fault-free run", zero, v)
		}
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := WriteSpans(path, spans); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ReadSpans(f)
	if err != nil || len(back) != len(spans) {
		t.Fatalf("read back %d of %d spans: %v", len(back), len(spans), err)
	}
	sum, _ := RoundMSFromSpans(back)
	if want := det.Extra["round_ms_traced"].Value; math.Abs(sum-want) > 1e-9*want {
		t.Errorf("round_ms from spans %g, the run reported %g", sum, want)
	}
	var phases []string
	for _, s := range back {
		if s.Parent == 1 {
			phases = append(phases, s.Name)
		}
		if s.EndNS < s.StartNS || s.Run == "" {
			t.Errorf("span %+v is not closed", s)
		}
	}
	if want := []string{"pretouch", "setup", "warmup", "measure", "validate", "tour", "probes"}; !slices.Equal(phases, want) {
		t.Errorf("phases under run: %v, want %v", phases, want)
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, _, _, err := Run(Options{Workload: "nope", Seconds: 10, Scale: 1}); err == nil {
		t.Error("Run accepted an unknown workload")
	}
}
