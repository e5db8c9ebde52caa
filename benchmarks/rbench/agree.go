package rbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"

	"renaissance/internal/stats"
)

// RunChild runs one workload in a fresh process of exe (this program) and
// returns the two lines it printed. It waits for the child to exit; a
// child that reports failed samples exits non-zero and is an error here.
func RunChild(exe string, o Options) (*Detail, *Result, error) {
	trace := "0"
	if o.Trace {
		trace = "1"
	}
	cmd := exec.Command(exe, "-workload", o.Workload, "-seed", strconv.FormatInt(o.Seed, 10),
		"-seconds", strconv.Itoa(o.Seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("run %s seed %d: %w", o.Workload, o.Seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("run %s seed %d: printed %d lines, want 2", o.Workload, o.Seed, len(lines))
	}
	det, res := new(Detail), new(Result)
	if err := json.Unmarshal(lines[len(lines)-2], det); err != nil {
		return nil, nil, fmt.Errorf("run %s seed %d: detail line: %w", o.Workload, o.Seed, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], res); err != nil {
		return nil, nil, fmt.Errorf("run %s seed %d: result line: %w", o.Workload, o.Seed, err)
	}
	return det, res, nil
}

// Agree checks that the benchmark agrees with itself: for every workload
// it makes two sets of n untraced runs of the same code, interleaved
// A B A B so that host drift falls on both sets alike, run i of either set
// with seed+i. A workload x metric passes when set B's median is no worse
// than set A's by more than the metric's bound and each set's quartile
// spread, as a share of its median, is within the bound (the spread of
// setup_s is shown but not judged, as in the driver that accepts the
// benchmark). It reports whether every row passed.
func Agree(w io.Writer, exe string, n int, seed int64, seconds int) (bool, error) {
	fmt.Fprintf(w, "%-14s %-19s %5s | %10s %10s %10s %6s | %10s %10s %10s %6s | %7s %s\n",
		"workload", "metric", "bound", "A.q1", "A.median", "A.q3", "A.iqr", "B.q1", "B.median", "B.q3", "B.iqr", "B vs A", "verdict")
	all := true
	for _, wl := range Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				_, res, err := RunChild(exe, Options{Workload: wl.Name, Seed: seed + int64(i), Seconds: seconds})
				if err != nil {
					return false, err
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		for _, d := range EndToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			aq1, _, aq3 := quartiles(a)
			bq1, _, bq3 := quartiles(b)
			am, bm := stats.Median(a), stats.Median(b)
			aIQR, bIQR, shift := (aq3-aq1)/am, (bq3-bq1)/bm, (bm-am)/am
			ok := shift <= d.Bound && (d.Name == "setup_s" || (aIQR <= d.Bound && bIQR <= d.Bound))
			verdict := "ok"
			if !ok {
				verdict, all = "DISAGREE", false
			}
			fmt.Fprintf(w, "%-14s %-19s %4.0f%% | %10.4f %10.4f %10.4f %5.1f%% | %10.4f %10.4f %10.4f %5.1f%% | %+6.1f%% %s\n",
				wl.Name, d.Name, 100*d.Bound, aq1, am, aq3, 100*aIQR, bq1, bm, bq3, 100*bIQR, 100*shift, verdict)
		}
	}
	return all, nil
}
