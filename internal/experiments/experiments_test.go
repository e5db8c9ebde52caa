package experiments

import (
	"bytes"
	"testing"

	"renaissance/internal/core"
	"renaissance/internal/metrics"
	"renaissance/internal/rvm/jit"
	"renaissance/internal/rvm/kernels"
	"renaissance/internal/rvm/opt"
)

// collectOnce caches the (slow) profile collection across tests.
var cachedProfiles []*metrics.Profile

func profiles(t *testing.T) []*metrics.Profile {
	t.Helper()
	if cachedProfiles == nil {
		ps, err := CollectProfiles(0.05)
		if err != nil {
			t.Fatal(err)
		}
		cachedProfiles = ps
	}
	return cachedProfiles
}

func TestCollectProfilesCoversAllSuites(t *testing.T) {
	ps := profiles(t)
	if len(ps) != 68 {
		t.Fatalf("profiles = %d, want 68", len(ps))
	}
	bySuite := map[string]int{}
	for _, p := range ps {
		bySuite[p.Suite]++
		if p.RefCycles <= 0 {
			t.Errorf("%s/%s has no reference cycles", p.Suite, p.Benchmark)
		}
	}
	if bySuite[core.SuiteRenaissance] != 21 || bySuite[core.SuiteClassic] != 21 ||
		bySuite[core.SuiteOO] != 14 || bySuite[core.SuiteFn] != 12 {
		t.Errorf("suite counts: %v", bySuite)
	}
}

func TestDiversityPCA(t *testing.T) {
	d, err := Analyze(profiles(t))
	if err != nil {
		t.Fatal(err)
	}
	// The inputs are the paper's 11 Table 2 metrics; the diagnostic
	// counters stay out of the PCA.
	if len(d.Metrics) != 11 || len(d.PCA.Loadings) != 11 {
		t.Errorf("PCA over %d metrics (%d loading rows), want 11", len(d.Metrics), len(d.PCA.Loadings))
	}
	for _, m := range d.Metrics {
		switch m {
		case metrics.DeadLetter, metrics.StmAbort, metrics.StmExtend, metrics.RddRecompute:
			t.Errorf("diagnostic counter %v is a PCA input", m)
		}
	}
	// First four components must capture a meaningful variance share (the
	// paper reports ~60%).
	ev := d.ExplainedVariance(4)
	if ev < 0.4 || ev > 1.0001 {
		t.Errorf("explained variance of 4 PCs = %.2f", ev)
	}
	// Renaissance must spread at least as widely as the classic suite
	// along the concurrency-correlated components (Figure 1's claim).
	maxSpreadPC := 0.0
	for c := 1; c < 4; c++ {
		spread := d.SuiteSpread(c)
		ratio := spread[core.SuiteRenaissance] / (spread[core.SuiteClassic] + 1e-9)
		if ratio > maxSpreadPC {
			maxSpreadPC = ratio
		}
	}
	if maxSpreadPC < 1 {
		t.Errorf("renaissance never spreads wider than classic on PC2-PC4 (best ratio %.2f)", maxSpreadPC)
	}

	// Table 3 renders.
	var buf bytes.Buffer
	if err := d.LoadingsTable(4).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty loadings table")
	}
	// Figure 1 renders.
	pts := d.ScatterPoints(0, 1)
	if len(pts) != len(profiles(t)) {
		t.Errorf("scatter points = %d", len(pts))
	}
}

func TestRateBarsAndTables(t *testing.T) {
	ps := profiles(t)
	bars := RateBars(ps, metrics.Atomic)
	if len(bars) != len(ps) {
		t.Fatalf("bars = %d", len(bars))
	}
	var buf bytes.Buffer
	if err := Table7(ps).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if err := Table1().Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100 {
		t.Error("tables rendered empty")
	}
}

func TestImpactPipelineSmall(t *testing.T) {
	// Run the full impact methodology at the smallest scale and check the
	// aggregate structure plus the paper's marquee benchmark-optimization
	// couplings (impacts are cycle ratios, so they are deterministic).
	cells, err := MeasureImpacts(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 68*7 {
		t.Fatalf("cells = %d, want %d", len(cells), 68*7)
	}
	summaries := Summarize(cells, 0.05)
	if len(summaries) != 4 {
		t.Fatalf("summaries = %d", len(summaries))
	}
	byName := map[string]ImpactSummary{}
	for _, s := range summaries {
		byName[s.Suite] = s
	}
	// The paper's headline: all 7 optimizations matter on Renaissance;
	// fewer on the other suites.
	if got := byName[kernels.SuiteRenaissance].OptsWithImpact; got < 6 {
		t.Errorf("renaissance opts with >=5%% impact = %d, want >= 6", got)
	}
	if got := byName[kernels.SuiteDaCapo].OptsWithImpact; got >= byName[kernels.SuiteRenaissance].OptsWithImpact {
		t.Errorf("dacapo opts (%d) should trail renaissance (%d)",
			got, byName[kernels.SuiteRenaissance].OptsWithImpact)
	}
	// The paper's exact per-suite pattern (Figure 5): 7 on Renaissance,
	// 2 on ScalaBench, 1 on DaCapo and 3 on SPECjvm2008.
	for suite, want := range map[string]int{
		kernels.SuiteRenaissance: 7,
		kernels.SuiteScalaBench:  2,
		kernels.SuiteDaCapo:      1,
		kernels.SuiteSPECjvm:     3,
	} {
		if got := byName[suite].OptsWithImpact; got != want {
			t.Errorf("%s opts with >=5%% impact = %d, want %d", suite, got, want)
		}
	}

	// The coupled optimization must have a clearly positive impact on its
	// benchmark; the largest GM effect is on scimark.lu (+69%/+137% in the
	// paper), where disabling GM also disables vectorization.
	headline := []struct {
		suite, bench, opt string
		minImpact         float64
	}{
		{kernels.SuiteRenaissance, "fj-kmeans", opt.NameLLC, 0.30},
		{kernels.SuiteRenaissance, "finagle-chirper", opt.NameEAWA, 0.10},
		{kernels.SuiteRenaissance, "future-genetic", opt.NameAC, 0.05},
		{kernels.SuiteRenaissance, "future-genetic", opt.NameMHS, 0.05},
		{kernels.SuiteRenaissance, "scrabble", opt.NameMHS, 0.10},
		{kernels.SuiteRenaissance, "streams-mnemonics", opt.NameDBDS, 0.05},
		{kernels.SuiteRenaissance, "log-regression", opt.NameGM, 0.08},
		{kernels.SuiteRenaissance, "als", opt.NameLV, 0.04},
		{kernels.SuiteSPECjvm, "scimark.lu.small", opt.NameGM, 0.30},
	}
	for _, h := range headline {
		found := false
		for _, c := range cells {
			if c.Suite == h.suite && c.Benchmark == h.bench && c.Opt == h.opt {
				found = true
				if c.Impact < h.minImpact {
					t.Errorf("%s: impact of %s = %.1f%%, want >= %.0f%%",
						h.bench, h.opt, 100*c.Impact, 100*h.minImpact)
				}
			}
		}
		if !found {
			t.Errorf("no impact cell for %s/%s -%s", h.suite, h.bench, h.opt)
		}
	}

	var buf bytes.Buffer
	if err := ImpactTable(cells, kernels.SuiteRenaissance).Write(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Error("empty impact table")
	}
}

// The impact tables rest on simulated cycles being a function of the
// kernel and the pipeline alone. These three kernels used to change
// between runs of one binary: the atomic-CAS fusion picked its registers
// in map order.
func TestImpactCyclesDeterministic(t *testing.T) {
	for _, k := range []struct{ suite, name string }{
		{kernels.SuiteRenaissance, "chi-square"},
		{kernels.SuiteRenaissance, "future-genetic"},
		{kernels.SuiteScalaBench, "apparat"},
	} {
		spec, ok := kernels.Lookup(k.suite, k.name)
		if !ok {
			t.Fatalf("no kernel %s/%s", k.suite, k.name)
		}
		prog, err := kernels.Build(spec, 3)
		if err != nil {
			t.Fatal(err)
		}
		var first int64
		for rep := 0; rep < 3; rep++ {
			c, err := jit.Compile(prog, opt.OptPipeline())
			if err != nil {
				t.Fatal(err)
			}
			cycles, err := runOnce(c)
			if err != nil {
				t.Fatal(err)
			}
			if rep == 0 {
				first = cycles
			} else if cycles != first {
				t.Errorf("%s: full pipeline run %d gave %d cycles, run 0 gave %d", k.name, rep, cycles, first)
			}
		}
	}
}

func TestCompareCompilers(t *testing.T) {
	rows, err := CompareCompilers(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 68 {
		t.Fatalf("rows = %d", len(rows))
	}
	wins := 0
	for _, r := range rows {
		if r.Speedup > 1 {
			wins++
		}
	}
	// Figure 6: the optimizing pipeline wins on most benchmarks (51/68 in
	// the paper).
	if wins*4 < len(rows)*3 {
		t.Errorf("opt pipeline wins %d/%d", wins, len(rows))
	}
	// Here it wins on every kernel (EXPERIMENTS "Known deviations").
	if wins != len(rows) {
		t.Errorf("opt pipeline wins %d/%d, want all", wins, len(rows))
	}
}

func TestCodeSizesShape(t *testing.T) {
	rows, err := CodeSizes(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 68 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Figure 7: SPECjvm-like kernels are considerably smaller on average.
	avg := func(suite string) float64 {
		total, n := 0, 0
		for _, r := range rows {
			if r.Suite == suite {
				total += r.HotSize
				n++
			}
		}
		return float64(total) / float64(n)
	}
	if avg(kernels.SuiteSPECjvm) >= avg(kernels.SuiteRenaissance) {
		t.Errorf("specjvm hot code (%.0f) should be smaller than renaissance (%.0f)",
			avg(kernels.SuiteSPECjvm), avg(kernels.SuiteRenaissance))
	}
}

func TestCompileTimes(t *testing.T) {
	shares, err := CompileTimes(1)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range shares {
		total += s
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("shares sum to %.3f", total)
	}
	for _, o := range opt.PaperOptimizations() {
		if _, ok := shares[o]; !ok {
			t.Errorf("no compile-time share for %s", o)
		}
	}
}

func TestGuardProfile(t *testing.T) {
	with, without, err := GuardProfile(1)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(m map[string]int64) int64 {
		t := int64(0)
		for _, v := range m {
			t += v
		}
		return t
	}
	// §5.5: guard motion reduced executed guards by 83%; require a large
	// reduction and the appearance of Speculative rows.
	if sum(with)*2 > sum(without) {
		t.Errorf("guards with GM (%d) not well below without (%d)", sum(with), sum(without))
	}
	if with["Speculative BoundsCheck"] == 0 && with["Speculative NullCheck"] == 0 {
		t.Errorf("no speculative guards recorded: %v", with)
	}
	if without["Speculative BoundsCheck"] != 0 {
		t.Errorf("speculative guards present with GM disabled: %v", without)
	}
}

func TestMHSMethodProfile(t *testing.T) {
	with, without, err := MHSMethodProfile(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(with) == 0 || len(without) == 0 {
		t.Fatal("empty method profiles")
	}
	var withTotal, withoutTotal int64
	for _, h := range with {
		withTotal += h.Cycles
	}
	for _, h := range without {
		withoutTotal += h.Cycles
	}
	// §5.4: MHS reduces total time (350ms -> 303ms in the paper's table).
	if withTotal >= withoutTotal {
		t.Errorf("MHS total cycles %d not below %d", withTotal, withoutTotal)
	}
}

func TestSuiteSourceDirs(t *testing.T) {
	dirs := SuiteSourceDirs("../..")
	if len(dirs) != 4 {
		t.Fatalf("suites = %d", len(dirs))
	}
	for suite, ds := range dirs {
		if len(ds) == 0 {
			t.Errorf("suite %s has no source dirs", suite)
		}
	}
}

func TestKernelCacheProfile(t *testing.T) {
	counts, err := KernelCacheProfile(kernels.SuiteRenaissance, "scrabble", 1)
	if err != nil {
		t.Fatal(err)
	}
	if counts["L1D"][0] == 0 {
		t.Error("no L1 accesses traced")
	}
	if counts["L1D"][1] > counts["L1D"][0] {
		t.Error("more misses than accesses")
	}
	if _, err := KernelCacheProfile("nope", "nope", 1); err == nil {
		t.Error("bogus kernel accepted")
	}
}
