package renaissance

import (
	"fmt"
	"testing"

	"renaissance/internal/chaos"
	"renaissance/internal/core"
	"renaissance/internal/rdd"
)

// paperBenchmarks is the Table 1 inventory.
var paperBenchmarks = []string{
	"akka-uct", "als", "chi-square", "db-shootout", "dec-tree", "dotty",
	"finagle-chirper", "finagle-http", "fj-kmeans", "future-genetic",
	"log-regression", "movie-lens", "naive-bayes", "neo4j-analytics",
	"page-rank", "philosophers", "reactors", "rx-scrabble", "scrabble",
	"stm-bench7", "streams-mnemonics",
}

func TestAll21Registered(t *testing.T) {
	specs := core.Global.BySuite(core.SuiteRenaissance)
	if len(specs) != 21 {
		t.Fatalf("registered %d renaissance benchmarks, want 21", len(specs))
	}
	for _, name := range paperBenchmarks {
		if _, ok := core.Global.Lookup(core.SuiteRenaissance, name); !ok {
			t.Errorf("benchmark %q not registered", name)
		}
	}
	for _, s := range specs {
		if s.Description == "" || len(s.Focus) == 0 {
			t.Errorf("benchmark %q missing description or focus", s.Name)
		}
	}
}

// TestEveryBenchmarkRunsAndValidates executes each benchmark once at a
// small size factor and checks the validation hook.
func TestEveryBenchmarkRunsAndValidates(t *testing.T) {
	for _, name := range paperBenchmarks {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, ok := core.Global.Lookup(core.SuiteRenaissance, name)
			if !ok {
				t.Fatal("not registered")
			}
			r := core.NewRunner()
			r.Config.SizeFactor = 0.1
			r.WarmupOverride = 1
			r.MeasuredOverride = 1
			res, err := r.Run(spec)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Validated {
				t.Error("benchmark has no validation")
			}
			if res.Profile == nil || res.Profile.RefCycles <= 0 {
				t.Error("no profile collected")
			}
		})
	}
}

// TestSparkWorkloadsNeverPanicUnderChaos runs the seven Spark workloads
// through core.Runner with the points their kernels meet — rdd.task,
// rdd.recompute and forkjoin.claim — armed at 0.05. A failed chunk is
// recomputed, and one that spends its budget ends the run in
// StatusError: no kernel path may end it in StatusPanic.
func TestSparkWorkloadsNeverPanicUnderChaos(t *testing.T) {
	t.Cleanup(chaos.Disable)
	for _, seed := range []int64{1, 7} {
		chaos.Configure(seed, 0)
		for _, pt := range []string{"rdd.task", "rdd.recompute", "forkjoin.claim"} {
			chaos.SetRate(pt, 0.05)
		}
		for _, name := range []string{"als", "chi-square", "dec-tree", "log-regression", "movie-lens", "naive-bayes", "page-rank"} {
			spec, ok := core.Global.Lookup(core.SuiteRenaissance, name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			r := core.NewRunner()
			r.Config.SizeFactor = 0.1
			r.WarmupOverride = 1
			r.MeasuredOverride = 1
			res, _ := r.Run(spec)
			t.Logf("seed %d %s: %s, %d recomputed", seed, name, res.Status, res.Recomputes)
			if res.Status == core.StatusPanic {
				t.Errorf("seed %d: %s ended in panic: %s", seed, name, res.Err)
			}
		}
	}
}

// TestMetricProfilesMatchTable1Focus spot-checks that the benchmarks'
// metric profiles reflect their Table 1 focus: the STM benchmarks are
// atomic-heavy, the actor benchmarks park/notify, the streams benchmarks
// execute closure dispatch.
func TestMetricProfilesMatchTable1Focus(t *testing.T) {
	run := func(name string) map[string]float64 {
		spec, _ := core.Global.Lookup(core.SuiteRenaissance, name)
		r := core.NewRunner()
		r.Config.SizeFactor = 0.1
		r.WarmupOverride = 1
		r.MeasuredOverride = 1
		res, err := r.Run(spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out := map[string]float64{}
		for _, m := range []struct {
			key string
			idx int
		}{
			{"synch", 0}, {"wait", 1}, {"notify", 2}, {"atomic", 3},
			{"park", 4}, {"object", 7}, {"method", 9}, {"idynamic", 10},
		} {
			out[m.key] = float64(res.Profile.Counts.Counts[m.idx])
		}
		return out
	}

	stm := run("philosophers")
	// With per-ref waiter wakeup, synch is zero by design (no mutex on
	// any STM path) and notify only registers when a Retry-er actually
	// parked — both only appear under contention, which is rare on a
	// single core. Assert on the always-present STM signals: CAS/version
	// traffic and ref allocation.
	if stm["atomic"] == 0 || stm["object"] == 0 {
		t.Errorf("philosophers profile lacks STM signals: %v", stm)
	}
	uct := run("akka-uct")
	if uct["atomic"] == 0 || uct["method"] == 0 {
		t.Errorf("akka-uct profile lacks sends/dispatch: %v", uct)
	}
	scr := run("scrabble")
	if scr["idynamic"] == 0 {
		t.Errorf("scrabble profile lacks idynamic: %v", scr)
	}
	if scr["idynamic"] <= uct["idynamic"] {
		t.Errorf("scrabble idynamic (%v) should exceed akka-uct (%v)",
			scr["idynamic"], uct["idynamic"])
	}
}

// TestSTMBench7Variants runs the read-mostly and write-heavy STMBench7
// mixes (not part of the registered Table 1 inventory) end to end: both
// must hold the sum invariant, and the read-mostly mix must keep its long
// traversals consistent under whatever short-transfer load it generates.
func TestSTMBench7Variants(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.SizeFactor = 0.2
	for _, tc := range []struct {
		name string
		mix  sbMix
	}{
		{"read-mostly", sbMix{traversalPct: 80, regionalPct: 10}},
		{"write-heavy", sbMix{traversalPct: 5, regionalPct: 15}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			w, err := newSTMBench7Mix(cfg, tc.mix)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.RunIteration(); err != nil {
				t.Fatal(err)
			}
			if err := w.(interface{ Validate() error }).Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShootoutKeyMatchesSprintf: the hand formatter must produce the keys
// the workload always used, past six digits too.
func TestShootoutKeyMatchesSprintf(t *testing.T) {
	for _, k := range []int{0, 1, 9, 10, 4799, 99999, 100000, 999999, 1000000, 123456789, 1<<63 - 1} {
		if got, want := shootoutKey(k), fmt.Sprintf("key-%06d", k); got != want {
			t.Errorf("shootoutKey(%d) = %q, want %q", k, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = shootoutKey(4799) }); n > 1 {
		t.Errorf("shootoutKey allocates %v times, want <= 1", n)
	}
}

// TestSparkGeneratorsNameEveryID: rdd.NewGraph and rdd.NewRatingsGraph
// take ids as rows, so an id that no edge or rating names would be an
// isolated vertex or an empty factor row. At rbench's size factors for
// page-rank, als and movie-lens (500, 13 and 22), every id in [0, n) of
// each generator is named, so the graphs are exactly the dense ones the
// workloads mean.
func TestSparkGeneratorsNameEveryID(t *testing.T) {
	named := func(t *testing.T, what string, n int, ids func(yield func(int))) {
		t.Helper()
		seen := make([]bool, n)
		ids(func(id int) {
			if id < 0 || id >= n {
				t.Fatalf("%s id %d outside [0, %d)", what, id, n)
			}
			seen[id] = true
		})
		for id, ok := range seen {
			if !ok {
				t.Fatalf("%s id %d of [0, %d) named by nothing", what, id, n)
			}
		}
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8, 42} {
		cfg := core.Config{SizeFactor: 500, Seed: seed}
		n := cfg.Scale(600)
		edges := pageRankEdges(cfg.Rand("page-rank"), n)
		named(t, "page-rank vertex", n, func(yield func(int)) {
			for _, e := range edges {
				yield(e.Key)
				yield(e.Value)
			}
		})
		for _, c := range []struct {
			name         string
			size         float64
			users, items int
			ratings      func(core.Config) []rdd.Rating
		}{
			{"als", 13, 60, 40, func(cfg core.Config) []rdd.Rating { return alsRatings(cfg, 4) }},
			{"movie-lens", 22, 50, 35, movieLensRatings},
		} {
			cfg := core.Config{SizeFactor: c.size, Seed: seed}
			ratings := c.ratings(cfg)
			named(t, c.name+" user", cfg.Scale(c.users), func(yield func(int)) {
				for _, r := range ratings {
					yield(r.User)
				}
			})
			named(t, c.name+" item", cfg.Scale(c.items), func(yield func(int)) {
				for _, r := range ratings {
					yield(r.Item)
				}
			})
		}
	}
}
