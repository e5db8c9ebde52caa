package experiments

import (
	"fmt"
	"sort"
	"time"

	"renaissance/internal/report"
	"renaissance/internal/rvm"
	"renaissance/internal/rvm/cachesim"
	"renaissance/internal/rvm/jit"
	"renaissance/internal/rvm/kernels"
	"renaissance/internal/rvm/opt"
	"renaissance/internal/stats"
)

// KernelSuiteLabels maps kernel suites to the paper's suite names for
// report output.
var KernelSuiteLabels = map[string]string{
	kernels.SuiteRenaissance: "Renaissance",
	kernels.SuiteDaCapo:      "DaCapo",
	kernels.SuiteScalaBench:  "ScalaBench",
	kernels.SuiteSPECjvm:     "SPECjvm2008",
}

// ImpactCell is one cell of Figure 5 / Tables 12–15: the impact of one
// optimization on one benchmark.
type ImpactCell struct {
	Suite     string
	Benchmark string
	Opt       string
	// Impact is the relative change in deterministic execution cycles when
	// the optimization is disabled (positive = optimization helps), the
	// paper's §6 measure.
	Impact float64
}

// MeasureImpacts evaluates all seven §5 optimizations on every kernel of
// every suite. Simulated cycles are a function of the kernel and the
// pipeline alone, so each configuration runs once.
func MeasureImpacts(scale int) ([]ImpactCell, error) {
	var out []ImpactCell
	for _, spec := range kernels.Specs() {
		prog, err := kernels.Build(spec, scale)
		if err != nil {
			return nil, err
		}
		full, err := jit.Compile(prog, opt.OptPipeline())
		if err != nil {
			return nil, fmt.Errorf("impact: %s/%s: %w", spec.Suite, spec.Name, err)
		}
		fullCycles, err := runOnce(full)
		if err != nil {
			return nil, fmt.Errorf("impact: %s/%s: %w", spec.Suite, spec.Name, err)
		}
		for _, optName := range opt.PaperOptimizations() {
			disabled, err := jit.Compile(prog, opt.OptPipeline().Disable(optName))
			if err != nil {
				return nil, err
			}
			disCycles, err := runOnce(disabled)
			if err != nil {
				return nil, fmt.Errorf("impact: %s/%s -%s: %w", spec.Suite, spec.Name, optName, err)
			}
			impact := 0.0
			if fullCycles > 0 {
				impact = float64(disCycles-fullCycles) / float64(fullCycles)
			}
			out = append(out, ImpactCell{
				Suite:     spec.Suite,
				Benchmark: spec.Name,
				Opt:       optName,
				Impact:    impact,
			})
		}
	}
	return out, nil
}

// runOnce executes the kernel once and returns its simulated cycle count.
func runOnce(c *jit.Compiled) (int64, error) {
	_, st, err := c.Run()
	if err != nil {
		return 0, err
	}
	return st.Cycles, nil
}

// ImpactSummary aggregates cells the way §6 reports Figure 5: per suite,
// how many of the 7 optimizations have >= threshold impact on some
// benchmark, and the median positive impact.
type ImpactSummary struct {
	Suite          string
	OptsWithImpact int
	MedianImpact   float64
}

// Summarize computes the §6 headline numbers. An impact is an exact cycle
// difference, so no significance test filters the cells; the median is
// over the positive impacts.
func Summarize(cells []ImpactCell, threshold float64) []ImpactSummary {
	type key struct{ suite, opt string }
	hit := map[key]bool{}
	impacts := map[string][]float64{}
	for _, c := range cells {
		impacts[c.Suite] = append(impacts[c.Suite], c.Impact)
		if c.Impact >= threshold {
			hit[key{c.Suite, c.Opt}] = true
		}
	}
	var out []ImpactSummary
	for suite, xs := range impacts {
		n := 0
		for _, o := range opt.PaperOptimizations() {
			if hit[key{suite, o}] {
				n++
			}
		}
		out = append(out, ImpactSummary{Suite: suite, OptsWithImpact: n, MedianImpact: stats.Median(positive(xs))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Suite < out[j].Suite })
	return out
}

func positive(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}

// ImpactTable renders one suite's Tables 12–15 block: rows are benchmarks,
// columns the seven optimizations' impacts, in the paper's column order
// AC, DS, EAWA, GM, LV, LLC, MHS.
func ImpactTable(cells []ImpactCell, suite string) *report.Table {
	order := opt.PaperOptimizations()
	t := &report.Table{Title: fmt.Sprintf("Optimization impact — %s kernels", KernelSuiteLabels[suite])}
	t.Headers = append([]string{"benchmark"}, order...)
	byBench := map[string]map[string]ImpactCell{}
	var names []string
	for _, c := range cells {
		if c.Suite != suite {
			continue
		}
		if byBench[c.Benchmark] == nil {
			byBench[c.Benchmark] = map[string]ImpactCell{}
			names = append(names, c.Benchmark)
		}
		byBench[c.Benchmark][c.Opt] = c
	}
	sort.Strings(names)
	for _, name := range names {
		row := []any{name}
		for _, o := range order {
			row = append(row, fmt.Sprintf("%+.1f%%", 100*byBench[name][o].Impact))
		}
		t.AddRow(row...)
	}
	return t
}

// CompilerRow is one Figure 6 entry: the opt pipeline's speedup over the
// baseline pipeline.
type CompilerRow struct {
	Suite     string
	Benchmark string
	// Speedup is baselineCycles / optCycles (deterministic; > 1 means the
	// optimizing pipeline wins).
	Speedup float64
}

// CompareCompilers runs every kernel once under each pipeline (Figure 6).
func CompareCompilers(scale int) ([]CompilerRow, error) {
	var out []CompilerRow
	for _, spec := range kernels.Specs() {
		prog, err := kernels.Build(spec, scale)
		if err != nil {
			return nil, err
		}
		base, err := jit.Compile(prog, opt.BaselinePipeline())
		if err != nil {
			return nil, err
		}
		full, err := jit.Compile(prog, opt.OptPipeline())
		if err != nil {
			return nil, err
		}
		baseCycles, err := runOnce(base)
		if err != nil {
			return nil, err
		}
		optCycles, err := runOnce(full)
		if err != nil {
			return nil, err
		}
		row := CompilerRow{Suite: spec.Suite, Benchmark: spec.Name}
		if optCycles > 0 {
			row.Speedup = float64(baseCycles) / float64(optCycles)
		}
		out = append(out, row)
	}
	return out, nil
}

// CodeSizeRow is one Figure 7 entry.
type CodeSizeRow struct {
	Suite      string
	Benchmark  string
	HotSize    int // compiled IR instructions in hot methods
	HotMethods int
}

// CodeSizes compiles and runs every kernel under the opt pipeline and
// reports the hot compiled-code footprint (Figure 7). Methods consuming at
// least 0.1% of cycles count as hot.
func CodeSizes(scale int) ([]CodeSizeRow, error) {
	var out []CodeSizeRow
	for _, spec := range kernels.Specs() {
		prog, err := kernels.Build(spec, scale)
		if err != nil {
			return nil, err
		}
		c, err := jit.Compile(prog, opt.OptPipeline())
		if err != nil {
			return nil, err
		}
		_, st, err := c.Run()
		if err != nil {
			return nil, err
		}
		size, count := c.HotCodeSize(st, 0.001)
		out = append(out, CodeSizeRow{Suite: spec.Suite, Benchmark: spec.Name, HotSize: size, HotMethods: count})
	}
	return out, nil
}

// CompileTimes measures Table 16: the share of total compilation time each
// optimization pass consumes, aggregated over all kernels.
func CompileTimes(scale int) (map[string]float64, error) {
	pipe := opt.OptPipeline()
	for _, spec := range kernels.Specs() {
		prog, err := kernels.Build(spec, scale)
		if err != nil {
			return nil, err
		}
		if _, err := jit.Compile(prog, pipe); err != nil {
			return nil, err
		}
	}
	var total time.Duration
	for _, d := range pipe.PassTime {
		total += d
	}
	out := map[string]float64{}
	if total == 0 {
		return out, nil
	}
	for name, d := range pipe.PassTime {
		out[name] = float64(d) / float64(total)
	}
	return out, nil
}

// GuardProfile reproduces the §5.5 guard-execution table on the
// log-regression kernel: executed guard counts by kind, with and without
// speculative guard motion.
func GuardProfile(scale int) (with, without map[string]int64, err error) {
	spec, ok := kernels.Lookup(kernels.SuiteRenaissance, "log-regression")
	if !ok {
		return nil, nil, fmt.Errorf("guard profile: kernel missing")
	}
	prog, err := kernels.Build(spec, scale)
	if err != nil {
		return nil, nil, err
	}
	run := func(pipe *opt.Pipeline) (map[string]int64, error) {
		c, err := jit.Compile(prog, pipe)
		if err != nil {
			return nil, err
		}
		_, st, err := c.Run()
		if err != nil {
			return nil, err
		}
		return st.GuardsExecuted, nil
	}
	with, err = run(opt.OptPipeline())
	if err != nil {
		return nil, nil, err
	}
	without, err = run(opt.OptPipeline().Disable(opt.NameGM))
	return with, without, err
}

// MHSMethodProfile reproduces the §5.4 hottest-methods table on the
// scrabble kernel: per-method cycles with and without method-handle
// simplification.
func MHSMethodProfile(scale int) (with, without []jit.HotMethod, err error) {
	spec, ok := kernels.Lookup(kernels.SuiteRenaissance, "scrabble")
	if !ok {
		return nil, nil, fmt.Errorf("mhs profile: kernel missing")
	}
	prog, err := kernels.Build(spec, scale)
	if err != nil {
		return nil, nil, err
	}
	run := func(pipe *opt.Pipeline) ([]jit.HotMethod, error) {
		c, err := jit.Compile(prog, pipe)
		if err != nil {
			return nil, err
		}
		_, st, err := c.Run()
		if err != nil {
			return nil, err
		}
		return c.HotMethods(st), nil
	}
	with, err = run(opt.OptPipeline())
	if err != nil {
		return nil, nil, err
	}
	without, err = run(opt.OptPipeline().Disable(opt.NameMHS))
	return with, without, err
}

// CompileTimeDelta measures Table 16 the paper's way: the relative
// reduction in total compilation time when one optimization is disabled,
// aggregated over all kernels.
func CompileTimeDelta(scale int) (map[string]float64, error) {
	progs := make([]*rvm.Program, 0, 68)
	for _, spec := range kernels.Specs() {
		p, err := kernels.Build(spec, scale)
		if err != nil {
			return nil, err
		}
		progs = append(progs, p)
	}
	compileAll := func(disable string) (time.Duration, error) {
		total := time.Duration(0)
		for _, p := range progs {
			pipe := opt.OptPipeline()
			if disable != "" {
				pipe.Disable(disable)
			}
			c, err := jit.Compile(p, pipe)
			if err != nil {
				return 0, err
			}
			total += c.CompileTime
		}
		return total, nil
	}
	// Warm the runtime so the first measured configuration is not charged
	// for cold caches, then take the minimum of three passes per
	// configuration (compilation times are small and right-skewed).
	if _, err := compileAll(""); err != nil {
		return nil, err
	}
	measure := func(disable string) (time.Duration, error) {
		best := time.Duration(0)
		for i := 0; i < 3; i++ {
			d, err := compileAll(disable)
			if err != nil {
				return 0, err
			}
			if best == 0 || d < best {
				best = d
			}
		}
		return best, nil
	}
	full, err := measure("")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, o := range opt.PaperOptimizations() {
		reduced, err := measure(o)
		if err != nil {
			return nil, err
		}
		out[o] = float64(full-reduced) / float64(full)
	}
	return out, nil
}

// KernelCacheProfile runs one kernel under the opt pipeline with the
// cache simulator attached and returns per-level accesses and misses —
// the hardware-counter half of Table 2's cachemiss metric, simulated.
func KernelCacheProfile(suite, name string, scale int) (map[string][2]int64, error) {
	spec, ok := kernels.Lookup(suite, name)
	if !ok {
		return nil, fmt.Errorf("no kernel %s/%s", suite, name)
	}
	prog, err := kernels.Build(spec, scale)
	if err != nil {
		return nil, err
	}
	c, err := jit.Compile(prog, opt.OptPipeline())
	if err != nil {
		return nil, err
	}
	sim := cachesim.New(nil)
	if _, _, err := c.RunTraced(sim); err != nil {
		return nil, err
	}
	return sim.Counts(), nil
}
