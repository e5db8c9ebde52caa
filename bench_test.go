// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (regenerating the artifact's data each iteration),
// plus ablation benchmarks for the design choices called out in DESIGN.md.
// Run with:
//
//	go test -bench=. -benchmem
//
// Individual experiments: go test -bench=BenchmarkFigure5 -benchtime=1x
package renaissance_test

import (
	"fmt"
	"testing"

	"renaissance/internal/ck"
	"renaissance/internal/core"
	"renaissance/internal/experiments"
	"renaissance/internal/metrics"
	"renaissance/internal/rvm/jit"
	"renaissance/internal/rvm/kernels"
	"renaissance/internal/rvm/opt"
	"renaissance/internal/stm"

	_ "renaissance/internal/bench/classic"
	_ "renaissance/internal/bench/fn"
	_ "renaissance/internal/bench/oo"
	_ "renaissance/internal/bench/renaissance"
)

// --- Table 1: benchmark inventory ---

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if len(t.Rows) != 21 {
			b.Fatalf("table 1 has %d rows", len(t.Rows))
		}
	}
}

// profileCache avoids re-collecting the (identical) Table 7 data in every
// figure benchmark.
var profileCache []*metrics.Profile

func profilesOnce(b *testing.B) []*metrics.Profile {
	b.Helper()
	if profileCache == nil {
		ps, err := experiments.CollectProfiles(0.1)
		if err != nil {
			b.Fatal(err)
		}
		profileCache = ps
	}
	return profileCache
}

// --- Table 7: metric profiles of all 68 benchmarks ---

func BenchmarkTable7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ps, err := experiments.CollectProfiles(0.1)
		if err != nil {
			b.Fatal(err)
		}
		if len(ps) != 68 {
			b.Fatalf("%d profiles", len(ps))
		}
		profileCache = ps
	}
}

// --- Table 3 + Figure 1: PCA diversity analysis ---

func BenchmarkFigure1PCA(b *testing.B) {
	ps := profilesOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := experiments.Analyze(ps)
		if err != nil {
			b.Fatal(err)
		}
		if d.ExplainedVariance(4) <= 0 {
			b.Fatal("degenerate PCA")
		}
	}
}

// --- Figures 2, 3, 4: metric-rate charts ---

func benchRate(b *testing.B, m metrics.Metric) {
	ps := profilesOnce(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bars := experiments.RateBars(ps, m)
		if len(bars) != len(ps) {
			b.Fatal("bad bars")
		}
	}
}

func BenchmarkFigure2AtomicRates(b *testing.B)   { benchRate(b, metrics.Atomic) }
func BenchmarkFigure3SynchRates(b *testing.B)    { benchRate(b, metrics.Synch) }
func BenchmarkFigure4IDynamicRates(b *testing.B) { benchRate(b, metrics.IDynamic) }

// --- Figure 5 + Tables 12–15: optimization impact matrix ---

func BenchmarkFigure5Impact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := experiments.MeasureImpacts(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(cells) != 68*7 {
			b.Fatalf("%d cells", len(cells))
		}
	}
}

// --- Figure 6: compiler comparison ---

func BenchmarkFigure6Compilers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CompareCompilers(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 68 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// --- Figure 7: compiled code size ---

func BenchmarkFigure7CodeSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.CodeSizes(1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 68 {
			b.Fatalf("%d rows", len(rows))
		}
	}
}

// --- Table 16: compilation time per optimization ---

func BenchmarkTable16CompileTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CompileTimes(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5.5 guard table ---

func BenchmarkGuardTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.GuardProfile(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5.4 hottest-methods table ---

func BenchmarkMHSHotMethods(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.MHSMethodProfile(1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables 4, 5, 8–11: CK complexity metrics ---

func BenchmarkTable4CK(b *testing.B) {
	dirs := experiments.SuiteSourceDirs(".")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ds := range dirs {
			rep, err := ck.AnalyzeDirs(ds)
			if err != nil {
				b.Fatal(err)
			}
			if rep.TypeCount == 0 {
				b.Fatal("no types analyzed")
			}
		}
	}
}

// --- Per-benchmark harness benchmarks (one iteration per b.N) ---

func BenchmarkRenaissance(b *testing.B) {
	for _, spec := range core.Global.BySuite(core.SuiteRenaissance) {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.SizeFactor = 0.1
			w, err := spec.Setup(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if c, ok := w.(core.Closer); ok {
				defer c.Close()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := w.RunIteration(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblationLLCChunk sweeps the lock-coarsening tile size C on the
// fj-kmeans kernel (the paper: "a chunk size of C = 32 works well").
func BenchmarkAblationLLCChunk(b *testing.B) {
	spec, ok := kernels.Lookup(kernels.SuiteRenaissance, "fj-kmeans")
	if !ok {
		b.Fatal("missing kernel")
	}
	prog, err := kernels.Build(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	saved := opt.CoarsenChunk
	defer func() { opt.CoarsenChunk = saved }()
	for _, c := range []int64{1, 4, 8, 32, 128} {
		c := c
		b.Run(fmt.Sprintf("C=%d", c), func(b *testing.B) {
			opt.CoarsenChunk = c
			compiled, err := jit.Compile(prog, opt.OptPipeline())
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := compiled.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationMHSInline measures MHS with inlining disabled: the
// devirtualized call must still help, but less than with the inliner
// consuming it (§5.4's "inlining ... triggers other optimizations").
func BenchmarkAblationMHSInline(b *testing.B) {
	spec, _ := kernels.Lookup(kernels.SuiteRenaissance, "scrabble")
	prog, err := kernels.Build(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	configs := map[string]*opt.Pipeline{
		"no-mhs":         opt.OptPipeline().Disable(opt.NameMHS),
		"mhs-no-inline":  opt.OptPipeline().Disable(opt.NameInline),
		"mhs-and-inline": opt.OptPipeline(),
	}
	for name, pipe := range configs {
		pipe := pipe
		b.Run(name, func(b *testing.B) {
			compiled, err := jit.Compile(prog, pipe)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := compiled.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationGMEnablesLV quantifies the §5.6 interaction: disabling
// guard motion must also suppress vectorization.
func BenchmarkAblationGMEnablesLV(b *testing.B) {
	spec, _ := kernels.Lookup(kernels.SuiteSPECjvm, "scimark.lu.small")
	prog, err := kernels.Build(spec, 1)
	if err != nil {
		b.Fatal(err)
	}
	configs := map[string]*opt.Pipeline{
		"gm-and-lv": opt.OptPipeline(),
		"lv-only":   opt.OptPipeline().Disable(opt.NameGM),
		"gm-only":   opt.OptPipeline().Disable(opt.NameLV),
		"neither":   opt.OptPipeline().Disable(opt.NameGM, opt.NameLV),
	}
	for name, pipe := range configs {
		pipe := pipe
		b.Run(name, func(b *testing.B) {
			compiled, err := jit.Compile(prog, pipe)
			if err != nil {
				b.Fatal(err)
			}
			var cycles int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := compiled.Run()
				if err != nil {
					b.Fatal(err)
				}
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationSTMContention sweeps worker counts on an STM counter,
// showing the commit-retry cost under contention.
func BenchmarkAblationSTMContention(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ref := stm.NewRef(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				done := make(chan struct{})
				for w := 0; w < workers; w++ {
					go func() {
						for k := 0; k < 200; k++ {
							_ = stm.Atomically(func(tx *stm.Tx) error {
								tx.Write(ref, tx.Read(ref).(int)+1)
								return nil
							})
						}
						done <- struct{}{}
					}()
				}
				for w := 0; w < workers; w++ {
					<-done
				}
			}
		})
	}
}
