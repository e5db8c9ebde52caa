// Quickstart: register a custom benchmark in the harness, run it with a
// measurement plugin attached, and print its metric profile — the
// "easily add new benchmarks" and "custom measurement plugins" workflow of
// the paper's harness (§2.2).
package main

import (
	"fmt"
	"log"
	"sort"

	"renaissance/internal/core"
	"renaissance/internal/metrics"
	"renaissance/internal/stats"
	"renaissance/internal/streams"
)

// wordLengths is the benchmark body: a stream pipeline grouping words by
// length (closure dispatch shows up in the idynamic metric).
func wordLengths(words []string) map[int][]string {
	return streams.GroupBy(streams.FromSlice(words), func(w string) int { return len(w) })
}

// iterationLogger is a measurement plugin latching onto execution events.
type iterationLogger struct {
	core.Base
	iterations int
}

func (p *iterationLogger) AfterIteration(ev core.IterationEvent) {
	p.iterations++
	phase := "steady"
	if ev.Warmup {
		phase = "warmup"
	}
	fmt.Printf("  [%s] iteration %d of %s took %v\n", phase, ev.Index, ev.Benchmark, ev.Duration)
}

func main() {
	// 1. Register a benchmark.
	core.Register(core.Spec{
		Name:        "word-lengths",
		Suite:       "examples",
		Description: "Group a word list by length with the streams library.",
		Focus:       []string{"data-parallel"},
		Warmup:      1,
		Measured:    3,
		Setup: func(cfg core.Config) (core.Workload, error) {
			words := make([]string, cfg.Scale(50000))
			for i := range words {
				words[i] = fmt.Sprintf("w%0*d", i%9+1, i)
			}
			return core.WorkloadFunc(func() error {
				groups := wordLengths(words)
				if len(groups) == 0 {
					return fmt.Errorf("no groups")
				}
				return nil
			}), nil
		},
	})

	// 2. Run it with a plugin attached.
	spec, _ := core.Global.Lookup("examples", "word-lengths")
	runner := core.NewRunner()
	logger := &iterationLogger{}
	runner.Use(logger)
	fmt.Println("running word-lengths:")
	res, err := runner.Run(spec)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Inspect the results and the metric profile.
	fmt.Printf("\nmedian steady-state iteration: %.2f ms over %d iterations\n",
		stats.Median(res.Durations), len(res.Durations))
	fmt.Println("metric profile (normalized rates per 10^9 reference cycles):")
	type row struct {
		name string
		rate float64
	}
	var rows []row
	for _, m := range metrics.AllMetrics() {
		if m == metrics.CPU {
			continue
		}
		rows = append(rows, row{m.String(), res.Profile.Rate(m) * 1e9})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].rate > rows[j].rate })
	for _, r := range rows {
		fmt.Printf("  %-10s %12.1f\n", r.name, r.rate)
	}
}
