// Command benchpair compares two commits of this repository on the
// repository's benchmark (BENCHMARK.json, benchmarks/run.sh) in
// alternating pairs of runs on one host.
//
// Usage:
//
//	benchpair <base-ref> [<head-ref>|.] -n N -workload W [-seed S]
//
// A ref is checked out with git worktree under .bench_build/ and removed
// again at the end; "." (the default head) is the working tree itself.
// Pair i runs both sides untraced with seed S+i, each through its own
// benchmarks/run.sh, base first in even pairs and head first in odd ones
// (A B B A). Runs whose environment fingerprints differ in anything but
// commit and seed are refused: they are different experiments.
//
// For each end-to-end metric of BENCHMARK.json it prints each side's
// median [q1, q3], the pairs the head won (ties count for neither side)
// and a verdict:
//
//   - gain: the head won at least nine tenths of the pairs, and the
//     medians differ in its favour by more than the distance between the
//     base's quartiles;
//   - worse: the head's median is worse than the base's by more than the
//     metric's bound;
//   - unresolved: the base's quartile spread, as a share of its median,
//     exceeds the bound, and not every head run beats every base run;
//   - held: otherwise.
//
// The layer metrics an untraced run reports beside them (op.*.ms, rt.*,
// proc.*, prof.*) follow, judged only as gain, loss (the same rule with
// the sides swapped) or "-".
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchpair", flag.ContinueOnError)
	n := fs.Int("n", 10, "pairs of runs")
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of the first pair; pair i runs with seed+i")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: benchpair <base-ref> [<head-ref>|.] -n N -workload W [-seed S]")
		fs.PrintDefaults()
	}
	// Flags may follow the refs, so parse around each positional argument.
	var refs []string
	for {
		if err := fs.Parse(args); err != nil {
			return err
		}
		if fs.NArg() == 0 {
			break
		}
		refs, args = append(refs, fs.Arg(0)), fs.Args()[1:]
	}
	if len(refs) == 1 {
		refs = append(refs, ".")
	}
	if len(refs) != 2 || *workload == "" || *n < 1 {
		fs.Usage()
		return fmt.Errorf("want one or two refs, -workload and -n >= 1")
	}

	root, err := git("", "rev-parse", "--show-toplevel")
	if err != nil {
		return err
	}
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	// An interrupt stops the running side and still removes the worktrees.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var dirs [2]string
	worktrees := map[string]string{} // commit -> worktree
	defer func() {
		for _, dir := range worktrees {
			if _, err := git(root, "worktree", "remove", "--force", dir); err != nil {
				fmt.Fprintln(os.Stderr, "benchpair:", err)
			}
		}
	}()
	for i, ref := range refs {
		if ref == "." {
			dirs[i] = root
			continue
		}
		sha, err := git(root, "rev-parse", "--verify", ref+"^{commit}")
		if err != nil {
			return err
		}
		if dir, ok := worktrees[sha]; ok {
			dirs[i] = dir
			continue
		}
		dir := filepath.Join(root, ".bench_build", "pair-"+sha[:12])
		if _, err := git(root, "worktree", "add", "--detach", dir, sha); err != nil {
			return err
		}
		worktrees[sha], dirs[i] = dir, dir
	}

	var runs [2][]result
	for i := 0; i < *n; i++ {
		s := *seed + int64(i)
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, side := range order {
			r, err := runOnce(ctx, dirs[side], *workload, s)
			if err != nil {
				return fmt.Errorf("%s, seed %d: %w", refs[side], s, err)
			}
			line := fmt.Sprintf("pair %d/%d seed %d %s: %d failed", i+1, *n, s, refs[side], r.failed)
			for _, m := range spec.EndToEnd {
				line += fmt.Sprintf(", %s %.4f", m.Name, r.metrics[m.Name])
			}
			fmt.Fprintln(os.Stderr, line)
			runs[side] = append(runs[side], r)
		}
	}
	fmt.Printf("%s: base %s, head %s, %d pairs from seed %d\n", *workload, refs[0], refs[1], *n, *seed)
	return compare(os.Stdout, spec, runs[0], runs[1])
}

// git runs a git command in dir and returns its trimmed output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

// runOnce runs one untraced benchmark run in a checkout. A run with failed
// samples exits non-zero after printing its lines; it still counts, with
// its failures.
func runOnce(ctx context.Context, dir, workload string, seed int64) (result, error) {
	cmd := exec.CommandContext(ctx, "bash", "benchmarks/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", "10", "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	r, err := parseRun(out)
	if err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%w (%v)", err, runErr)
		}
		return result{}, err
	}
	return r, nil
}

// result is one run: its fingerprint, its failed samples, and every metric
// it printed, end-to-end and layer alike.
type result struct {
	env     map[string]json.RawMessage
	failed  int
	metrics map[string]float64
}

// parseRun reads the detail and result lines a run prints last.
func parseRun(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return result{}, fmt.Errorf("printed %d lines, want a detail and a result line", len(lines))
	}
	type metric struct {
		Value float64 `json:"value"`
	}
	var det struct {
		Env   map[string]json.RawMessage `json:"env"`
		Extra map[string]metric          `json:"extra"`
	}
	var res struct {
		Failed  int               `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-2], &det); err != nil {
		return result{}, fmt.Errorf("detail line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("result line: %w", err)
	}
	r := result{env: det.Env, failed: res.Failed, metrics: map[string]float64{}}
	for name, m := range det.Extra {
		r.metrics[name] = m.Value
	}
	for name, m := range res.Metrics {
		r.metrics[name] = m.Value
	}
	return r, nil
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// compare refuses runs of different experiments, then prints one row per
// metric that every run reported.
func compare(w io.Writer, spec benchSpec, base, head []result) error {
	if len(base) != len(head) || len(base) == 0 {
		return fmt.Errorf("%d base runs and %d head runs, want equal and non-zero", len(base), len(head))
	}
	if err := sameExperiment(append(append([]result(nil), base...), head...)); err != nil {
		return err
	}
	fb, fh := 0, 0
	for i := range base {
		fb += base[i].failed
		fh += head[i].failed
	}
	fmt.Fprintf(w, "failed samples: base %d, head %d\n", fb, fh)
	fmt.Fprintf(w, "%-32s %-34s %-34s %5s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "won", "verdict")
	for _, kind := range []struct {
		metrics []metricSpec
		bounded bool
	}{{spec.EndToEnd, true}, {spec.PerLayer, false}} {
		for _, m := range kind.metrics {
			a, b := values(base, m.Name), values(head, m.Name)
			if a == nil || b == nil {
				continue
			}
			row := judge(m, a, b, kind.bounded)
			fmt.Fprintf(w, "%-32s %-34s %-34s %2d/%-2d  %s\n", m.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g]", row.base[1], row.base[0], row.base[2]),
				fmt.Sprintf("%.4g [%.4g, %.4g]", row.head[1], row.head[0], row.head[2]),
				row.won, len(a), row.verdict)
		}
	}
	return nil
}

// sameExperiment reports the first fingerprint field, other than commit
// and seed, in which a run differs from the first.
func sameExperiment(runs []result) error {
	first := runs[0].env
	for _, r := range runs[1:] {
		for _, env := range []map[string]json.RawMessage{first, r.env} {
			for k := range env {
				if k == "commit" || k == "seed" {
					continue
				}
				if !bytes.Equal(first[k], r.env[k]) {
					return fmt.Errorf("fingerprints differ in %s: %s and %s; these are different experiments", k, first[k], r.env[k])
				}
			}
		}
	}
	return nil
}

// values returns one metric from every run, or nil if a run lacks it.
func values(runs []result, name string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		v, ok := r.metrics[name]
		if !ok {
			return nil
		}
		out[i] = v
	}
	return out
}

type row struct {
	base, head [3]float64 // q1, median, q3
	won        int        // pairs the head won
	verdict    string
}

// judge applies the verdict rules of the package doc to one metric; a is
// the base's runs and b the head's, pair by pair.
func judge(m metricSpec, a, b []float64, bounded bool) row {
	// better reports whether x reads better than y.
	better := func(x, y float64) bool {
		if m.Better == "higher" {
			return x > y
		}
		return x < y
	}
	var r row
	r.base[0], r.base[1], r.base[2] = quartiles(a)
	r.head[0], r.head[1], r.head[2] = quartiles(b)
	lost := 0
	for i := range a {
		switch {
		case better(b[i], a[i]):
			r.won++
		case better(a[i], b[i]):
			lost++
		}
	}
	iqr := r.base[2] - r.base[0]
	gap := r.head[1] - r.base[1]
	clears := func(pairs int) bool { return 10*pairs >= 9*len(a) && math.Abs(gap) > iqr }
	switch {
	case clears(r.won) && better(r.head[1], r.base[1]):
		r.verdict = "gain"
	case !bounded && clears(lost) && better(r.base[1], r.head[1]):
		r.verdict = "loss"
	case !bounded:
		r.verdict = "-"
	case better(r.base[1], r.head[1]) && math.Abs(gap) > m.Bound*math.Abs(r.base[1]):
		r.verdict = "worse"
	case iqr > m.Bound*math.Abs(r.base[1]) && !allBetter(b, a, better):
		r.verdict = "unresolved"
	default:
		r.verdict = "held"
	}
	return r
}

// allBetter reports whether every value of xs reads better than every
// value of ys.
func allBetter(xs, ys []float64, better func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), as
// rbench does, so that spreads read the same here and in rbench agree.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
