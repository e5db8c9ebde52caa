// Command rbench runs the repository's benchmark. See ../../README.md.
//
//	rbench -workload <name> [-seed 42] [-seconds 10] [-trace 0|1] [-spans file]
//	rbench all [-seed 42]        every workload, untraced then traced, every metric by name
//	rbench agree [-n 3]          two interleaved sets of runs, compared against the bounds
//	rbench explain spans.jsonl   self time per span of a traced run
//	rbench list                  workloads and metric names
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"renaissance/benchmarks/rbench"
)

func main() {
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && args[0][0] != '-' {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = run(args)
	case "all":
		err = all(args)
	case "agree":
		err = agree(args)
	case "explain":
		err = explain(args)
	case "list":
		list()
	default:
		err = fmt.Errorf("unknown command %q (run, all, agree, explain, list)", cmd)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rbench", flag.ContinueOnError)
	o := rbench.Options{}
	fs.StringVar(&o.Workload, "workload", "", "workload to run (see rbench list)")
	fs.Int64Var(&o.Seed, "seed", 42, "seed of every generated input")
	fs.IntVar(&o.Seconds, "seconds", rbench.DefaultSeconds, "run length; sets the fixed number of measured rounds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics, 0 = the end-to-end metrics")
	spansPath := fs.String("spans", "", "traced run: write the spans to this file as JSON lines")
	fs.Float64Var(&o.Scale, "scale", 1, "shrink every amount of work (smoke tests; the numbers compare with nothing)")
	fs.IntVar(&o.Rounds, "rounds", 0, "override the measured round count (smoke tests)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	o.Trace = *trace != 0
	det, res, spans, err := rbench.Run(o)
	if err != nil {
		return err
	}
	if *spansPath != "" {
		if err := rbench.WriteSpans(*spansPath, spans); err != nil {
			return err
		}
	}
	for _, line := range []any{det, res} {
		b, err := json.Marshal(line)
		if err != nil {
			return err
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		return fmt.Errorf("%d of %d samples failed", res.Failed, res.Attempted)
	}
	return nil
}

func all(args []string) error {
	fs := flag.NewFlagSet("rbench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "seed of every generated input")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wl := range rbench.Workloads {
		for _, trace := range []bool{false, true} {
			det, res, err := rbench.RunChild(exe, rbench.Options{Workload: wl.Name, Seed: *seed, Seconds: rbench.DefaultSeconds, Trace: trace})
			if err != nil {
				return err
			}
			env, _ := json.Marshal(det.Env) // a struct of strings and ints always marshals
			fmt.Printf("# %s trace=%v wall=%.1fs samples=%d failed=%d env=%s\n", wl.Name, trace, det.WallS, res.Attempted, res.Failed, env)
			names := make([]string, 0, len(res.Metrics))
			for n := range res.Metrics {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				fmt.Printf("%-14s %-34s %16.6g %s\n", wl.Name, n, res.Metrics[n].Value, res.Metrics[n].Unit)
			}
		}
	}
	return nil
}

func agree(args []string) error {
	fs := flag.NewFlagSet("rbench agree", flag.ContinueOnError)
	n := fs.Int("n", 3, "runs per set and workload")
	seed := fs.Int64("seed", 42, "seed of the first run of each set")
	if err := fs.Parse(args); err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ok, err := rbench.Agree(os.Stdout, exe, *n, *seed, rbench.DefaultSeconds)
	if err == nil && !ok {
		err = fmt.Errorf("two sets of runs of the same code disagree beyond the bounds")
	}
	return err
}

func explain(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: rbench explain spans.jsonl")
	}
	f, err := os.Open(args[0])
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := rbench.ReadSpans(f)
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	rbench.Explain(os.Stdout, spans)
	return nil
}

func list() {
	for _, wl := range rbench.Workloads {
		fmt.Printf("workload %-14s rounds/%ds=%d  %s\n", wl.Name, rbench.DefaultSeconds, wl.Rounds, wl.Why)
		for _, op := range wl.Ops {
			fmt.Printf("  %-18s size %-5g reps %d\n", op.Bench, op.Size, op.Reps)
		}
	}
	for _, d := range rbench.EndToEnd {
		fmt.Printf("end_to_end %-34s %-6s bound %.2f\n", d.Name, d.Unit, d.Bound)
	}
	for _, d := range rbench.PerLayer() {
		fmt.Printf("per_layer  %-34s %s\n", d.Name, d.Unit)
	}
}
