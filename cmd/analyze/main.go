// Command analyze regenerates every table and figure of the paper's
// evaluation: the Table 1 inventory, the Table 7 metric profiles, the
// Table 3 / Figure 1 PCA, the Figure 2–4 metric-rate charts, the Figure 5
// optimization-impact matrix with Tables 12–15, the Figure 6 compiler
// comparison, the Figure 7 code-size profile, the Table 16 compilation
// times, the §5.4/§5.5 drill-down tables, and the §7 CK complexity
// analysis.
//
// Usage: analyze [subcommand], where subcommand is one of
// table1, table7, pca, rates, impact, compilers, codesize, comptime,
// guards, mhs-hot, ck, classes, or all (default).
package main

import (
	"fmt"
	"os"
	"sort"

	"renaissance/internal/ck"
	"renaissance/internal/core"
	"renaissance/internal/experiments"
	"renaissance/internal/metrics"
	"renaissance/internal/report"
	"renaissance/internal/rvm/kernels"
)

// sizeFactor keeps the native-workload profiling pass quick; the kernel
// experiments use their own scale.
const sizeFactor = 0.3

func main() {
	cmd := "all"
	if len(os.Args) > 1 {
		cmd = os.Args[1]
	}
	steps := map[string]func() error{
		"table1":    table1,
		"table7":    table7,
		"pca":       pcaStep,
		"rates":     rates,
		"impact":    impact,
		"compilers": compilers,
		"codesize":  codesize,
		"comptime":  comptime,
		"guards":    guards,
		"mhs-hot":   mhsHot,
		"ck":        ckStep,
		"classes":   classes,
		"cache":     cacheStep,
	}
	run := func(name string) {
		if err := steps[name](); err != nil {
			fmt.Fprintf(os.Stderr, "analyze %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	if cmd == "all" {
		order := []string{"table1", "table7", "pca", "rates", "impact",
			"compilers", "codesize", "comptime", "guards", "mhs-hot", "cache", "ck", "classes"}
		for _, name := range order {
			run(name)
		}
		return
	}
	if _, ok := steps[cmd]; !ok {
		fmt.Fprintf(os.Stderr, "analyze: unknown subcommand %q\n", cmd)
		os.Exit(2)
	}
	run(cmd)
}

var cachedProfiles []*metrics.Profile

func profiles() ([]*metrics.Profile, error) {
	if cachedProfiles == nil {
		ps, err := experiments.CollectProfiles(sizeFactor)
		if err != nil {
			return nil, err
		}
		cachedProfiles = ps
	}
	return cachedProfiles, nil
}

func table1() error {
	return experiments.Table1().Write(os.Stdout)
}

func table7() error {
	ps, err := profiles()
	if err != nil {
		return err
	}
	return experiments.Table7(ps).Write(os.Stdout)
}

func pcaStep() error {
	ps, err := profiles()
	if err != nil {
		return err
	}
	d, err := experiments.Analyze(ps)
	if err != nil {
		return err
	}
	fmt.Printf("PCA over %d benchmarks x %d metrics; first 4 PCs explain %.0f%% of variance\n\n",
		len(ps), len(d.Metrics), 100*d.ExplainedVariance(4))
	if err := d.LoadingsTable(4).Write(os.Stdout); err != nil {
		return err
	}
	if err := report.Scatter(os.Stdout, "Figure 1(a): PC1 vs PC2  [R=renaissance d=dacapo-like s=scalabench-like j=specjvm-like]",
		"PC1", "PC2", d.ScatterPoints(0, 1), 72, 20); err != nil {
		return err
	}
	if err := report.Scatter(os.Stdout, "Figure 1(b): PC3 vs PC4",
		"PC3", "PC4", d.ScatterPoints(2, 3), 72, 20); err != nil {
		return err
	}
	t := &report.Table{Title: "Suite score spread per PC (range of scores)",
		Headers: []string{"suite", "PC1", "PC2", "PC3", "PC4"}}
	for _, suite := range []string{core.SuiteRenaissance, core.SuiteOO, core.SuiteFn, core.SuiteClassic} {
		row := []any{suite}
		for c := 0; c < 4; c++ {
			row = append(row, fmt.Sprintf("%.2f", d.SuiteSpread(c)[suite]))
		}
		t.AddRow(row...)
	}
	return t.Write(os.Stdout)
}

func rates() error {
	ps, err := profiles()
	if err != nil {
		return err
	}
	figures := []struct {
		title  string
		metric metrics.Metric
	}{
		{"Figure 2: atomic operations per 10^9 reference cycles", metrics.Atomic},
		{"Figure 3: synchronized sections per 10^9 reference cycles", metrics.Synch},
		{"Figure 4: invokedynamic analogues per 10^9 reference cycles", metrics.IDynamic},
	}
	for _, f := range figures {
		bars := experiments.RateBars(ps, f.metric)
		report.SortBarsDesc(bars)
		if len(bars) > 25 {
			bars = bars[:25] // top entries; the tail is near zero
		}
		if err := report.BarChart(os.Stdout, f.title+" (top 25)", bars, 40); err != nil {
			return err
		}
	}
	return nil
}

func impact() error {
	cells, err := experiments.MeasureImpacts(3)
	if err != nil {
		return err
	}
	for _, suite := range []string{kernels.SuiteRenaissance, kernels.SuiteDaCapo,
		kernels.SuiteScalaBench, kernels.SuiteSPECjvm} {
		if err := experiments.ImpactTable(cells, suite).Write(os.Stdout); err != nil {
			return err
		}
	}
	t := &report.Table{Title: "Figure 5 summary: optimizations with >=5% impact (cycles)",
		Headers: []string{"suite", "opts with impact (of 7)", "median positive impact"}}
	for _, s := range experiments.Summarize(cells, 0.05) {
		t.AddRow(experiments.KernelSuiteLabels[s.Suite], s.OptsWithImpact,
			fmt.Sprintf("%.1f%%", 100*s.MedianImpact))
	}
	return t.Write(os.Stdout)
}

func compilers() error {
	rows, err := experiments.CompareCompilers(3)
	if err != nil {
		return err
	}
	var bars []report.Bar
	wins, losses := 0, 0
	for _, r := range rows {
		if r.Speedup > 1 {
			wins++
		} else if r.Speedup < 1 {
			losses++
		}
		bars = append(bars, report.Bar{
			Label: r.Suite + "/" + r.Benchmark,
			Value: r.Speedup,
		})
	}
	sort.Slice(bars, func(i, j int) bool { return bars[i].Label < bars[j].Label })
	if err := report.BarChart(os.Stdout,
		"Figure 6: opt-pipeline speedup over baseline pipeline (cycles)",
		bars, 40); err != nil {
		return err
	}
	fmt.Printf("opt pipeline faster on %d/%d kernels, slower on %d\n\n", wins, len(rows), losses)
	return nil
}

func codesize() error {
	rows, err := experiments.CodeSizes(2)
	if err != nil {
		return err
	}
	t := &report.Table{Title: "Figure 7: hot compiled-code size and hot-method count (opt pipeline)",
		Headers: []string{"suite", "kernel", "hot IR instrs", "hot methods"}}
	perSuite := map[string][]float64{}
	for _, r := range rows {
		t.AddRow(r.Suite, r.Benchmark, r.HotSize, r.HotMethods)
		perSuite[r.Suite] = append(perSuite[r.Suite], float64(r.HotSize))
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}
	sumT := &report.Table{Title: "Per-suite average hot code size",
		Headers: []string{"suite", "avg hot IR instrs"}}
	var suites []string
	for s := range perSuite {
		suites = append(suites, s)
	}
	sort.Strings(suites)
	for _, s := range suites {
		total := 0.0
		for _, v := range perSuite[s] {
			total += v
		}
		sumT.AddRow(experiments.KernelSuiteLabels[s], fmt.Sprintf("%.0f", total/float64(len(perSuite[s]))))
	}
	return sumT.Write(os.Stdout)
}

func comptime() error {
	deltas, err := experiments.CompileTimeDelta(2)
	if err != nil {
		return err
	}
	t := &report.Table{Title: "Table 16: compilation-time reduction when each optimization is disabled (all kernels)",
		Headers: []string{"optimization", "compile-time change"}}
	var names []string
	for n := range deltas {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t.AddRow(n, fmt.Sprintf("%.1f%%", 100*deltas[n]))
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}

	shares, err := experiments.CompileTimes(2)
	if err != nil {
		return err
	}
	t2 := &report.Table{Title: "Per-pass share of total pipeline time",
		Headers: []string{"pass", "share"}}
	names = names[:0]
	for n := range shares {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t2.AddRow(n, fmt.Sprintf("%.1f%%", 100*shares[n]))
	}
	return t2.Write(os.Stdout)
}

func guards() error {
	with, without, err := experiments.GuardProfile(2)
	if err != nil {
		return err
	}
	render := func(title string, m map[string]int64) error {
		total := int64(0)
		for _, v := range m {
			total += v
		}
		t := &report.Table{Title: title, Headers: []string{"guard type", "executions", "share"}}
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if m[keys[i]] != m[keys[j]] {
				return m[keys[i]] < m[keys[j]]
			}
			return keys[i] < keys[j] // ties in name order, so the table is reproducible
		})
		for _, k := range keys {
			t.AddRow(k, m[k], fmt.Sprintf("%.0f%%", 100*float64(m[k])/float64(total)))
		}
		t.AddRow("Total", total, "100%")
		return t.Write(os.Stdout)
	}
	if err := render("Guards executed WITHOUT speculative guard motion (log-regression kernel)", without); err != nil {
		return err
	}
	return render("Guards executed WITH speculative guard motion", with)
}

func mhsHot() error {
	with, without, err := experiments.MHSMethodProfile(2)
	if err != nil {
		return err
	}
	t := &report.Table{Title: "Hottest methods of the scrabble kernel (cycles), with vs without MHS",
		Headers: []string{"method", "with", "w/o"}}
	woCycles := map[string]int64{}
	var withTotal, woTotal int64
	for _, h := range without {
		woCycles[h.Name] = h.Cycles
		woTotal += h.Cycles
	}
	for _, h := range with {
		withTotal += h.Cycles
	}
	t.AddRow("<total>", withTotal, woTotal)
	for i, h := range with {
		if i >= 6 {
			break
		}
		t.AddRow(h.Name, h.Cycles, woCycles[h.Name])
	}
	return t.Write(os.Stdout)
}

func ckStep() error {
	dirs := experiments.SuiteSourceDirs(".")
	t := &report.Table{Title: "Table 4: CK metrics per suite (sum / average over analyzed types)",
		Headers: []string{"suite", "types", "WMC", "DIT", "CBO", "NOC", "RFC", "LCOM",
			"avgWMC", "avgDIT", "avgCBO", "avgNOC", "avgRFC", "avgLCOM"}}
	var suites []string
	for s := range dirs {
		suites = append(suites, s)
	}
	sort.Strings(suites)
	for _, suite := range suites {
		rep, err := ck.AnalyzeDirs(dirs[suite])
		if err != nil {
			return err
		}
		s := rep.Summarize()
		t.AddRow(suite, s.N, s.Sum.WMC, s.Sum.DIT, s.Sum.CBO, s.Sum.NOC, s.Sum.RFC, s.Sum.LCOM,
			fmt.Sprintf("%.1f", s.Avg[0]), fmt.Sprintf("%.2f", s.Avg[1]),
			fmt.Sprintf("%.1f", s.Avg[2]), fmt.Sprintf("%.2f", s.Avg[3]),
			fmt.Sprintf("%.1f", s.Avg[4]), fmt.Sprintf("%.1f", s.Avg[5]))
	}
	if err := t.Write(os.Stdout); err != nil {
		return err
	}

	// Per-package detail, the Tables 8–11 analogue.
	detail := &report.Table{Title: "Tables 8-11 analogue: CK sums per package",
		Headers: []string{"package", "types", "WMC", "DIT", "CBO", "NOC", "RFC", "LCOM"}}
	seen := map[string]bool{}
	var allDirs []string
	for _, ds := range dirs {
		for _, d := range ds {
			if !seen[d] {
				seen[d] = true
				allDirs = append(allDirs, d)
			}
		}
	}
	sort.Strings(allDirs)
	for _, d := range allDirs {
		rep, err := ck.AnalyzeDirs([]string{d})
		if err != nil {
			return err
		}
		s := rep.Summarize()
		detail.AddRow(d, s.N, s.Sum.WMC, s.Sum.DIT, s.Sum.CBO, s.Sum.NOC, s.Sum.RFC, s.Sum.LCOM)
	}
	return detail.Write(os.Stdout)
}

func classes() error {
	dirs := experiments.SuiteSourceDirs(".")
	t := &report.Table{Title: "Table 5: analyzed types per suite (loaded-classes analogue)",
		Headers: []string{"suite", "types"}}
	var suites []string
	for s := range dirs {
		suites = append(suites, s)
	}
	sort.Strings(suites)
	for _, suite := range suites {
		rep, err := ck.AnalyzeDirs(dirs[suite])
		if err != nil {
			return err
		}
		t.AddRow(suite, rep.TypeCount)
	}
	return t.Write(os.Stdout)
}

func cacheStep() error {
	t := &report.Table{Title: "Simulated cache behavior of representative kernels (opt pipeline)",
		Headers: []string{"kernel", "L1D acc", "L1D miss", "LLC miss", "DTLB miss"}}
	for _, k := range []struct{ suite, name string }{
		{kernels.SuiteRenaissance, "fj-kmeans"},
		{kernels.SuiteRenaissance, "als"},
		{kernels.SuiteRenaissance, "scrabble"},
		{kernels.SuiteSPECjvm, "scimark.lu.small"},
		{kernels.SuiteSPECjvm, "scimark.fft.small"},
		{kernels.SuiteDaCapo, "eclipse"},
	} {
		counts, err := experiments.KernelCacheProfile(k.suite, k.name, 1)
		if err != nil {
			return err
		}
		t.AddRow(k.suite+"/"+k.name,
			counts["L1D"][0], counts["L1D"][1], counts["LLC"][1], counts["DTLB"][1])
	}
	return t.Write(os.Stdout)
}
