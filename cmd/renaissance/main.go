// Command renaissance is the benchmark harness CLI: it lists and runs the
// workloads of the four suites, prints their metric profiles, and emits
// JSON results — the role of the paper's harness (§2.2).
//
// Usage:
//
//	renaissance list [-suite name]
//	renaissance run [-suite name] [-bench name] [-size f] [-warmup n] [-measured n]
//	                [-timeout d] [-retries n]
//	                [-chaos.seed n] [-chaos.rate f] [-chaos.stats] [-json]
//	                [-rvm.profile]
//	                [-openloop.rate r] [-openloop.sweep r1,r2,...] [-openloop.duration d]
//	renaissance metrics
//
// With -openloop.rate or -openloop.sweep, matching benchmarks that
// register an open-loop target run under the coordinated-omission-safe
// load generator instead of the iteration harness: offered load follows a
// seeded Poisson schedule (deterministic per -chaos.seed), latency is
// measured from intended send times into HDR histograms, and a sweep
// reports the saturation knee where p99 diverges from p50.
//
// -chaos.rate and -chaos.seed arm every chaos injection point, the
// harness's own (core.iteration, a panic before a benchmark iteration,
// which -retries re-runs) as well as the substrates'. The Spark kernels
// recover from partition faults by recompute, up to three extra attempts
// per partition, and -chaos.stats dumps each chaos point's trial/fire
// counts after the run so a chaos sweep's coverage is auditable.
//
// Runs degrade gracefully: a benchmark that fails, panics, or exceeds its
// deadline is recorded with its status and the sweep continues; the exit
// summary tallies statuses and the exit code is non-zero if any run was
// not ok.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"renaissance/internal/chaos"
	"renaissance/internal/core"
	"renaissance/internal/loadgen"
	"renaissance/internal/metrics"
	"renaissance/internal/report"
	"renaissance/internal/rvm"
	"renaissance/internal/stats"

	_ "renaissance/internal/bench/classic"
	_ "renaissance/internal/bench/fn"
	_ "renaissance/internal/bench/oo"
	_ "renaissance/internal/bench/renaissance"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "metrics":
		err = cmdMetrics()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "renaissance:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  renaissance list [-suite name]
  renaissance run [-suite name] [-bench name] [-size f] [-warmup n] [-measured n]
                  [-timeout d] [-retries n]
                  [-chaos.seed n] [-chaos.rate f] [-chaos.stats] [-json]
                  [-rvm.profile]
                  [-openloop.rate r] [-openloop.sweep r1,r2,...] [-openloop.duration d]
  renaissance metrics`)
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	suite := fs.String("suite", "", "only list this suite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t := &report.Table{Headers: []string{"suite", "benchmark", "focus", "description"}}
	for _, s := range core.Global.All() {
		if *suite != "" && s.Suite != *suite {
			continue
		}
		focus := ""
		for i, f := range s.Focus {
			if i > 0 {
				focus += ", "
			}
			focus += f
		}
		t.AddRow(s.Suite, s.Name, focus, s.Description)
	}
	return t.Write(os.Stdout)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	suite := fs.String("suite", "", "only run this suite")
	bench := fs.String("bench", "", "only run this benchmark")
	size := fs.Float64("size", 1.0, "workload size factor")
	warmup := fs.Int("warmup", 0, "override warmup iterations")
	measured := fs.Int("measured", 0, "override measured iterations")
	timeout := fs.Duration("timeout", 0, "override per-benchmark deadline (0 = spec default)")
	retries := fs.Int("retries", 0, "re-run a failed (error/timeout/panic) benchmark up to n times")
	chaosSeed := fs.Int64("chaos.seed", 1, "chaos injection seed (deterministic per seed)")
	chaosRate := fs.Float64("chaos.rate", 0, "chaos injection rate in [0,1); 0 disables injection")
	chaosStats := fs.Bool("chaos.stats", false, "dump per-point chaos trial/fire counts to stderr after the run")
	asJSON := fs.Bool("json", false, "emit JSON results")
	openRate := fs.Float64("openloop.rate", 0, "offered load (req/s) for a single open-loop measurement; 0 disables open-loop mode")
	openSweep := fs.String("openloop.sweep", "", "comma-separated offered rates (req/s) for an open-loop saturation sweep")
	openDur := fs.Duration("openloop.duration", time.Second, "offered-load duration per open-loop rate")
	rvmProfile := fs.Bool("rvm.profile", false, "collect the RVM tier-up profile and dump per-opcode/per-call-site stats to stderr after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *rvmProfile {
		rvm.ResetProfile()
		rvm.EnableProfiling()
		defer func() {
			rvm.DisableProfiling()
			rvm.WriteProfile(os.Stderr, 10)
		}()
	}

	r := core.NewRunner()
	r.Config.SizeFactor = *size
	r.WarmupOverride = *warmup
	r.MeasuredOverride = *measured
	r.TimeoutOverride = *timeout
	r.Retries = *retries
	if *chaosRate > 0 {
		chaos.Configure(*chaosSeed, *chaosRate)
		fmt.Fprintf(os.Stderr, "renaissance: chaos enabled: seed=%d rate=%g\n",
			chaos.Seed(), chaos.Rate())
	}

	var specs []*core.Spec
	for _, s := range core.Global.All() {
		if *suite != "" && s.Suite != *suite {
			continue
		}
		if *bench != "" && s.Name != *bench {
			continue
		}
		specs = append(specs, s)
	}
	if len(specs) == 0 {
		return fmt.Errorf("no benchmarks match suite=%q bench=%q", *suite, *bench)
	}

	if *openRate > 0 || *openSweep != "" {
		rates, err := parseRates(*openRate, *openSweep)
		if err != nil {
			return err
		}
		return runOpenLoop(specs, r.Config, rates, *openDur, *chaosSeed, *asJSON)
	}

	t := &report.Table{Headers: []string{"suite", "benchmark", "status", "median ms", "99% CI", "min ms", "max ms", "validated"}}
	var results []*core.Result
	for _, s := range specs {
		// Graceful degradation: record the failure and keep sweeping.
		res, err := r.Run(s)
		results = append(results, res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "renaissance: %s/%s: %s\n", s.Suite, s.Name, firstLine(res.Err))
		}
		if *asJSON {
			if err := res.WriteJSON(os.Stdout); err != nil {
				return err
			}
			continue
		}
		ci := "n/a"
		if _, lo, hi, err := stats.MedianCI(res.Durations); err == nil {
			ci = fmt.Sprintf("[%.2f, %.2f]", lo, hi)
		}
		t.AddRow(s.Suite, s.Name, string(res.Status),
			fmt.Sprintf("%.2f", stats.Median(res.Durations)), ci,
			fmt.Sprintf("%.2f", stats.Min(res.Durations)),
			fmt.Sprintf("%.2f", stats.Max(res.Durations)), res.Validated)
	}
	if !*asJSON {
		if err := t.Write(os.Stdout); err != nil {
			return err
		}
	}
	tally := core.TallyResults(results)
	fmt.Fprintf(os.Stderr, "renaissance: %d benchmarks: %s\n", tally.Total(), tally)
	if *chaosStats {
		if err := writeChaosStats(os.Stderr); err != nil {
			return err
		}
	}
	if !tally.AllOK() {
		return fmt.Errorf("%d of %d benchmarks did not complete cleanly",
			tally.Total()-tally.OK, tally.Total())
	}
	return nil
}

// parseRates merges the single-rate and sweep flags into the list of
// offered rates to measure.
func parseRates(rate float64, sweep string) ([]float64, error) {
	var rates []float64
	if rate > 0 {
		rates = append(rates, rate)
	}
	if sweep != "" {
		for _, f := range strings.Split(sweep, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil || v <= 0 {
				return nil, fmt.Errorf("bad -openloop.sweep rate %q", f)
			}
			rates = append(rates, v)
		}
	}
	if len(rates) == 0 {
		return nil, errors.New("no open-loop rates given")
	}
	return rates, nil
}

// openLoopPoint is the JSON shape of one sweep measurement.
type openLoopPoint struct {
	Rate       float64              `json:"rate"`
	Throughput float64              `json:"throughput"`
	Completed  int64                `json:"completed"`
	Rejected   int64                `json:"rejected,omitempty"`
	Errors     int64                `json:"errors,omitempty"`
	Dropped    int64                `json:"dropped,omitempty"`
	Latency    *core.LatencySummary `json:"latency"`
}

type openLoopResult struct {
	Benchmark string          `json:"benchmark"`
	Points    []openLoopPoint `json:"points"`
	// Knee is the index into Points of the first saturated rate, -1 when
	// every measured rate is below the knee.
	Knee int `json:"knee"`
}

// runOpenLoop drives every matching benchmark that registered an
// open-loop target through a saturation sweep and renders the per-rate
// percentile ladder with the knee marked. An empty latency histogram at
// any rate is an error — the smoke run in CI relies on the exit code.
func runOpenLoop(specs []*core.Spec, cfg core.Config, rates []float64, dur time.Duration, seed int64, asJSON bool) error {
	ran := false
	for _, s := range specs {
		if !loadgen.HasTarget(s.Name) {
			continue
		}
		ran = true
		factory := func() (loadgen.Target, error) { return loadgen.NewTarget(s.Name, cfg) }
		points, err := loadgen.Sweep(factory, rates, loadgen.Options{Duration: dur, Seed: seed})
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		knee := loadgen.Knee(points, 0)
		out := openLoopResult{Benchmark: s.Name, Points: make([]openLoopPoint, 0, len(points)), Knee: knee}
		rows := make([]report.SweepRow, 0, len(points))
		for i, pt := range points {
			res := pt.Result
			lat := core.SummarizeLatency(res.Hist)
			if lat == nil {
				return fmt.Errorf("%s: empty latency histogram at %g req/s (completed=%d rejected=%d errors=%d)",
					s.Name, pt.Rate, res.Completed, res.Rejected, res.Errors)
			}
			out.Points = append(out.Points, openLoopPoint{
				Rate: pt.Rate, Throughput: res.Throughput(),
				Completed: res.Completed, Rejected: res.Rejected,
				Errors: res.Errors, Dropped: res.Dropped, Latency: lat,
			})
			rows = append(rows, report.SweepRow{
				Rate: pt.Rate, Throughput: res.Throughput(),
				P50: lat.P50Millis, P90: lat.P90Millis, P99: lat.P99Millis, P999: lat.P999Millis,
				Completed: res.Completed, Rejected: res.Rejected,
				Errors: res.Errors, Dropped: res.Dropped, Knee: i == knee,
			})
		}
		if asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(out); err != nil {
				return err
			}
		} else {
			title := fmt.Sprintf("%s: open-loop sweep (%v per rate, seed %d)", s.Name, dur, seed)
			if err := report.SweepTable(title, rows).Write(os.Stdout); err != nil {
				return err
			}
		}
		if knee >= 0 {
			fmt.Fprintf(os.Stderr, "renaissance: %s saturates at %.0f req/s (p99 diverged from p50)\n",
				s.Name, points[knee].Rate)
		} else {
			fmt.Fprintf(os.Stderr, "renaissance: %s: no saturation knee within the measured rates\n", s.Name)
		}
	}
	if !ran {
		return fmt.Errorf("no matching benchmark registers an open-loop target (have: %s)",
			strings.Join(loadgen.TargetNames(), ", "))
	}
	return nil
}

// writeChaosStats renders every chaos point's trial and fire counts — the
// -chaos.stats audit trail showing which injection points a sweep actually
// exercised (a recovery point with zero trials means the sweep never
// reached that code path).
func writeChaosStats(w io.Writer) error {
	stats := chaos.Stats()
	if len(stats) == 0 {
		fmt.Fprintln(w, "renaissance: chaos stats: no points exercised")
		return nil
	}
	t := &report.Table{Title: "chaos points", Headers: []string{"point", "trials", "fires"}}
	for _, p := range stats {
		t.AddRow(p.Name, strconv.FormatInt(p.Trials, 10), strconv.FormatInt(p.Fires, 10))
	}
	return t.Write(w)
}

// firstLine trims a (possibly multi-line, stack-bearing) error message for
// the per-benchmark progress log; the full text stays in the JSON result.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

func cmdMetrics() error {
	desc := map[metrics.Metric]string{
		metrics.Synch:        "synchronized (mutex-guarded) sections executed",
		metrics.Wait:         "guarded-block waits (Object.wait analogues)",
		metrics.Notify:       "condition signals (Object.notify analogues)",
		metrics.Atomic:       "atomic memory operations executed",
		metrics.Park:         "goroutine park operations",
		metrics.CPU:          "average CPU utilization (process user+system time, % of GOMAXPROCS)",
		metrics.CacheMiss:    "cache misses (simulated / allocation proxy)",
		metrics.Object:       "objects allocated",
		metrics.Array:        "arrays (slices) allocated",
		metrics.Method:       "dynamically dispatched calls",
		metrics.IDynamic:     "closure dispatches (invokedynamic analogues)",
		metrics.DeadLetter:   "undeliverable messages and rejected requests (fault path)",
		metrics.StmAbort:     "STM transaction aborts (conflicts and contention)",
		metrics.StmExtend:    "STM read-version timestamp extensions",
		metrics.RddRecompute: "RDD partition recomputes (lineage recovery, fault path)",
	}
	t := &report.Table{Title: "Table 2: characterizing metrics", Headers: []string{"name", "description"}}
	for _, m := range metrics.AllMetrics() {
		t.AddRow(m.String(), desc[m])
	}
	return t.Write(os.Stdout)
}
