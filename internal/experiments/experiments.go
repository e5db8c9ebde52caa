// Package experiments implements one driver per table and figure of the
// paper's evaluation, gluing the harness, the metric profiles, the PCA,
// the RVM compiler experiments, and the CK analysis together. The
// per-experiment index in DESIGN.md maps each driver to its paper
// artifact; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"path/filepath"
	"sort"

	"renaissance/internal/core"
	"renaissance/internal/metrics"
	"renaissance/internal/pca"
	"renaissance/internal/report"

	// Register all four suites.
	_ "renaissance/internal/bench/classic"
	_ "renaissance/internal/bench/fn"
	_ "renaissance/internal/bench/oo"
	_ "renaissance/internal/bench/renaissance"
)

// SuiteSymbols maps suites to their Figure 1 scatter symbols.
var SuiteSymbols = map[string]rune{
	core.SuiteRenaissance: 'R',
	core.SuiteOO:          'd', // DaCapo-like
	core.SuiteFn:          's', // ScalaBench-like
	core.SuiteClassic:     'j', // SPECjvm-like
}

// CollectProfiles runs every registered benchmark once at the given size
// factor and returns the per-benchmark metric profiles (the Table 7 data:
// one steady-state execution per benchmark, as in supplement §B).
func CollectProfiles(sizeFactor float64) ([]*metrics.Profile, error) {
	r := core.NewRunner()
	r.Config.SizeFactor = sizeFactor
	r.WarmupOverride = 1
	r.MeasuredOverride = 1
	var out []*metrics.Profile
	for _, spec := range core.Global.All() {
		res, err := r.Run(spec)
		if err != nil {
			return nil, fmt.Errorf("experiments: profiling %s/%s: %w", spec.Suite, spec.Name, err)
		}
		out = append(out, res.Profile)
	}
	metrics.SortProfiles(out)
	return out, nil
}

// Diversity performs the §4 PCA over the normalized metric vectors.
type Diversity struct {
	Metrics  []metrics.Metric
	Profiles []*metrics.Profile
	PCA      *pca.Result
}

// Analyze runs the PCA. Rows are benchmarks, columns the 11 Table 2
// metrics (metrics.PaperMetrics) normalized by reference cycles (§3.2),
// standardized inside the PCA (§4.2).
func Analyze(profiles []*metrics.Profile) (*Diversity, error) {
	ms := metrics.PaperMetrics()
	x := make([][]float64, len(profiles))
	for i, p := range profiles {
		x[i] = make([]float64, len(ms))
		for j, m := range ms {
			x[i][j] = p.Rate(m)
		}
	}
	res, err := pca.Analyze(x)
	if err != nil {
		return nil, err
	}
	return &Diversity{Metrics: ms, Profiles: profiles, PCA: res}, nil
}

// LoadingsTable renders Table 3: metric loadings on the first k PCs,
// sorted by absolute value per component.
func (d *Diversity) LoadingsTable(k int) *report.Table {
	t := &report.Table{Title: fmt.Sprintf("Table 3: metric loadings on the first %d PCs", k)}
	t.Headers = []string{"rank"}
	for c := 0; c < k; c++ {
		t.Headers = append(t.Headers, fmt.Sprintf("PC%d metric", c+1), "load.")
	}
	type entry struct {
		name string
		load float64
	}
	perPC := make([][]entry, k)
	for c := 0; c < k; c++ {
		for j, m := range d.Metrics {
			perPC[c] = append(perPC[c], entry{m.String(), d.PCA.Loadings[j][c]})
		}
		sort.Slice(perPC[c], func(a, b int) bool {
			return abs(perPC[c][a].load) > abs(perPC[c][b].load)
		})
	}
	for rank := 0; rank < len(d.Metrics); rank++ {
		row := []any{rank + 1}
		for c := 0; c < k; c++ {
			row = append(row, perPC[c][rank].name, fmt.Sprintf("%+.2f", perPC[c][rank].load))
		}
		t.AddRow(row...)
	}
	return t
}

// ExplainedVariance returns the cumulative variance captured by the first
// k components (the paper: "the first four components account for ~60%").
func (d *Diversity) ExplainedVariance(k int) float64 {
	total := 0.0
	for c := 0; c < k && c < len(d.PCA.ExplainedVariance); c++ {
		total += d.PCA.ExplainedVariance[c]
	}
	return total
}

// ScatterPoints returns the Figure 1 points for components (cx, cy),
// 0-indexed.
func (d *Diversity) ScatterPoints(cx, cy int) []report.ScatterPoint {
	pts := make([]report.ScatterPoint, len(d.Profiles))
	for i, p := range d.Profiles {
		pts[i] = report.ScatterPoint{
			X:      d.PCA.Scores[i][cx],
			Y:      d.PCA.Scores[i][cy],
			Symbol: SuiteSymbols[p.Suite],
		}
	}
	return pts
}

// SuiteSpread returns, per suite, the score range (max-min) along a
// component — the quantitative form of "Renaissance benchmarks are widely
// distributed along PC2" (§4.3).
func (d *Diversity) SuiteSpread(component int) map[string]float64 {
	lo := map[string]float64{}
	hi := map[string]float64{}
	for i, p := range d.Profiles {
		s := d.PCA.Scores[i][component]
		if _, ok := lo[p.Suite]; !ok {
			lo[p.Suite], hi[p.Suite] = s, s
			continue
		}
		if s < lo[p.Suite] {
			lo[p.Suite] = s
		}
		if s > hi[p.Suite] {
			hi[p.Suite] = s
		}
	}
	out := map[string]float64{}
	for suite := range lo {
		out[suite] = hi[suite] - lo[suite]
	}
	return out
}

// RateBars returns the Figure 2/3/4 data: each benchmark's rate for one
// metric (occurrences per reference cycle), scaled to occurrences per 10^9
// cycles for readability.
func RateBars(profiles []*metrics.Profile, m metrics.Metric) []report.Bar {
	bars := make([]report.Bar, 0, len(profiles))
	for _, p := range profiles {
		bars = append(bars, report.Bar{
			Label: p.Suite + "/" + p.Benchmark,
			Value: p.Rate(m) * 1e9,
		})
	}
	return bars
}

// Table7 renders the unnormalized Table 2 metric counts for every
// benchmark.
func Table7(profiles []*metrics.Profile) *report.Table {
	t := &report.Table{Title: "Table 7: unnormalized metrics (single steady-state execution)"}
	t.Headers = []string{"suite", "benchmark"}
	ms := metrics.PaperMetrics()
	for _, m := range ms {
		t.Headers = append(t.Headers, m.String())
	}
	for _, p := range profiles {
		row := []any{p.Suite, p.Benchmark}
		for _, m := range ms {
			if m == metrics.CPU {
				row = append(row, fmt.Sprintf("%.1f", p.CPUUtil))
				continue
			}
			row = append(row, p.Counts.Get(m))
		}
		t.AddRow(row...)
	}
	return t
}

// Table1 renders the benchmark inventory with descriptions and focus.
func Table1() *report.Table {
	t := &report.Table{Title: "Table 1: the Renaissance suite"}
	t.Headers = []string{"benchmark", "description", "focus"}
	for _, s := range core.Global.BySuite(core.SuiteRenaissance) {
		focus := ""
		for i, f := range s.Focus {
			if i > 0 {
				focus += ", "
			}
			focus += f
		}
		t.AddRow(s.Name, s.Description, focus)
	}
	return t
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// SuiteSourceDirs maps each suite to the repository directories holding
// its implementation and the substrates it exercises (the CK analysis
// scope, playing the role of "classes loaded by the benchmark" in §7.1).
func SuiteSourceDirs(root string) map[string][]string {
	j := func(parts ...string) string {
		return filepath.Join(append([]string{root}, parts...)...)
	}
	return map[string][]string{
		core.SuiteRenaissance: {
			j("internal", "bench", "renaissance"),
			j("internal", "actors"), j("internal", "forkjoin"), j("internal", "stm"),
			j("internal", "futures"), j("internal", "streams"), j("internal", "rx"),
			j("internal", "rdd"), j("internal", "netstack"), j("internal", "memdb"),
			j("internal", "graphdb"), j("internal", "minilang"), j("internal", "rvm"),
		},
		core.SuiteOO: {
			j("internal", "bench", "oo"),
			j("internal", "memdb"), j("internal", "minilang"), j("internal", "rvm"),
		},
		core.SuiteFn: {
			j("internal", "bench", "fn"),
			j("internal", "streams"), j("internal", "actors"), j("internal", "minilang"),
			j("internal", "rvm"), j("internal", "rvm", "ir"), j("internal", "rvm", "opt"),
		},
		core.SuiteClassic: {
			j("internal", "bench", "classic"),
			j("internal", "memdb"), j("internal", "minilang"), j("internal", "rvm"),
		},
	}
}
