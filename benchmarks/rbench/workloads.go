// Package rbench is the repository's benchmark: five long steady-state
// workloads that together run each of the 21 Renaissance benchmarks
// exactly once, four end-to-end metrics per workload, and per-layer
// metrics taken in a separate traced run. It measures the program from
// outside — through the benchmark registry and the substrates' exported
// functions — and changes none of it. README.md defines every metric.
package rbench

import (
	"crypto/sha256"
	"fmt"
	"strings"
)

// An Op is one Renaissance benchmark inside a workload. Size is the
// SizeFactor handed to its Setup: one uniform size cannot serve (from size
// 1 to 16 neo4j-analytics grows 430x, chi-square 15x, akka-uct not at
// all), so each op carries the size that puts one sample at 60-140 ms on
// the 2-vCPU reference host. Reps is how many back-to-back RunIteration
// calls make one sample.
type Op struct {
	Bench string
	Size  float64
	Reps  int
}

// A Workload is a fixed list of ops run round-robin. Rounds is the number
// of measured rounds per ten requested seconds; it is a constant, never
// derived from the clock, so that work counts and allocation repeat
// exactly from run to run and from commit to commit.
type Workload struct {
	Name   string
	Why    string
	Ops    []Op
	Rounds int
}

const (
	// DefaultSeconds is the run length the Rounds column is calibrated
	// for (BENCHMARK.json's run_seconds).
	DefaultSeconds = 10
	// WarmupRounds run before the measured rounds on the instances that
	// are then measured; the first of them is the last set-up episode's.
	WarmupRounds = 4
	// SetupEpisodes is how many times the workload is set up from
	// scratch; setup_s is the median episode.
	SetupEpisodes = 5
	// PreSpawn is how many goroutine descriptors a run puts on the
	// runtime's free list before anything is measured (see preTouch).
	PreSpawn = 1024
)

// Workloads is the benchmark's workload table.
var Workloads = []Workload{
	{
		Name: "dataparallel",
		Why:  "rdd and lin do nearly all the work as coarse partition jobs on the shared fork-join pool; no actors, stm, netstack or rvm",
		Ops: []Op{
			{"als", 13, 1}, {"log-regression", 16, 1}, {"dec-tree", 55, 1}, {"page-rank", 500, 1},
			{"movie-lens", 22, 1}, {"naive-bayes", 180, 1}, {"chi-square", 700, 1},
		},
		Rounds: 18,
	},
	{
		Name: "taskparallel",
		Why:  "the same fork-join layer used differently: fine recursive fork/join, streams chunk claiming and futures chains, so a scheduler change that helps coarse rdd jobs but hurts fine tasks shows",
		Ops: []Op{
			{"fj-kmeans", 250, 1}, {"future-genetic", 7, 1}, {"scrabble", 5, 1}, {"streams-mnemonics", 16, 1},
		},
		Rounds: 22,
	},
	{
		Name: "messaging",
		Why:  "actors, mpsc and rx mailboxes plus netstack, futures and memdb request/response; almost no numeric work, so lin and rdd changes must not move it",
		Ops: []Op{
			// akka-uct ignores SizeFactor and takes 0.6 ms; it is batched.
			{"akka-uct", 1, 150}, {"reactors", 170, 1}, {"rx-scrabble", 55, 1},
			{"finagle-http", 10, 1}, {"finagle-chirper", 13, 1},
		},
		Rounds: 17,
	},
	{
		Name: "transactional",
		Why:  "shared mutable state: stm write-heavy retry/wakeup beside read-mostly traversal, memdb write-heavy shootout, graphdb transactions",
		Ops: []Op{
			{"philosophers", 330, 1}, {"stm-bench7", 9, 1}, {"db-shootout", 2.4, 1}, {"neo4j-analytics", 1.8, 1},
		},
		Rounds: 22,
	},
	{
		Name:   "compiler",
		Why:    "minilang and the rvm tiers on raw goroutines, GC-bound at a small heap: the only workload rvm work can move and the bypass for every substrate above",
		Ops:    []Op{{"dotty", 8, 1}},
		Rounds: 34,
	},
}

// Lookup finds a workload by name.
func Lookup(name string) (*Workload, bool) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], true
		}
	}
	return nil, false
}

// TableHash fingerprints the sizes/rounds table, so results taken with
// different tables are never compared silently.
func TableHash() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d/%d/%d/%d", DefaultSeconds, WarmupRounds, SetupEpisodes, PreSpawn)
	for _, w := range Workloads {
		fmt.Fprintf(&b, "|%s:%d", w.Name, w.Rounds)
		for _, o := range w.Ops {
			fmt.Fprintf(&b, ",%s*%g*%d", o.Bench, o.Size, o.Reps)
		}
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(b.String())))[:12]
}

// A MetricDef names one metric with its unit. Bound, set for end-to-end
// metrics only, is the share of the baseline's median by which the metric
// may worsen before a change counts as a regression. The two times carry
// the widest bound a benchmark may declare: on the shared 2-vCPU reference
// host whole runs of identical code differ by 6-16 % in their quartiles
// (README.md, noise study), while the two counts repeat within 1.2 % and
// 1 %, which their bounds exceed at least threefold.
type MetricDef struct {
	Name  string
	Unit  string
	Bound float64
}

// EndToEnd lists the end-to-end metrics, all lower-is-better, printed by
// an untraced run.
var EndToEnd = []MetricDef{
	{"setup_s", "s", 0.25},
	{"round_ms", "ms", 0.25},
	{"alloc_mb_per_round", "MB", 0.05},
	{"live_heap_mb", "MB", 0.05},
}

// runLevel are the per-layer metrics every run can compute without
// tracing; an untraced run prints them on its detail line.
var runLevel = []MetricDef{
	{Name: "round_p75_ms", Unit: "ms"}, {Name: "round_iqr_pct", Unit: "%"}, {Name: "core.setup_call_s", Unit: "s"},
	{Name: "proc.cpu_ms_per_round", Unit: "ms"}, {Name: "proc.parallelism", Unit: "ratio"},
	{Name: "rt.gc_cycles_per_round", Unit: "count"}, {Name: "rt.gc_cpu_pct", Unit: "%"},
	{Name: "rt.gc_pause_max_us", Unit: "us"}, {Name: "rt.sched_lat_p99_us", Unit: "us"},
	{Name: "rt.mutex_wait_ms_per_round", Unit: "ms"}, {Name: "rt.mallocs_k_per_round", Unit: "count"},
	{Name: "host.spin_ms", Unit: "ms"}, {Name: "host.spin_max_ms", Unit: "ms"},
}

// profCounters are the paper's counters reported per measured round, by
// their metrics.Metric names.
var profCounters = []string{
	"synch", "wait", "notify", "atomic", "park", "object", "array",
	"stmabort", "stmextend", "deadletter", "rddrecompute",
}

// PerLayer lists every per-layer metric a traced run prints, in the order
// README.md documents them.
func PerLayer() []MetricDef {
	var out []MetricDef
	for _, w := range Workloads {
		for _, o := range w.Ops {
			out = append(out, MetricDef{Name: "op." + o.Bench + ".ms", Unit: "ms"})
		}
	}
	out = append(out, runLevel...)
	out = append(out, MetricDef{Name: "trace.overhead_pct", Unit: "%"})
	for _, c := range profCounters {
		out = append(out, MetricDef{Name: "prof." + c, Unit: "count"})
	}
	for _, p := range probes {
		out = append(out, p.metrics...)
	}
	return out
}
