package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

var testSpec = benchSpec{
	EndToEnd: []metricSpec{
		{Name: "setup_s", Better: "lower", Bound: 0.25},
		{Name: "round_ms", Better: "lower", Bound: 0.25},
		{Name: "alloc_mb_per_round", Better: "lower", Bound: 0.05},
		{Name: "live_heap_mb", Better: "lower", Bound: 0.05},
	},
	PerLayer: []metricSpec{
		{Name: "op.scrabble.ms", Better: "lower"},
		{Name: "proc.parallelism", Better: "higher"},
	},
}

// cannedRun is the two lines one untraced run prints, with a progress line
// before them as run.sh may leave.
func cannedRun(commit string, seed, gomaxprocs int, setup, round, alloc, live, op, par float64) []byte {
	return fmt.Appendf(nil, "building\n"+
		`{"env":{"go_version":"go1.24.0","os_arch":"linux/amd64","nproc":2,"gomaxprocs":%d,"cpu_model":"Xeon","commit":%q,"seed":%d,"table_hash":"18297cae25f4"},"workload":"taskparallel","trace":false,"extra":{"op.scrabble.ms":{"value":%g,"unit":"ms"},"proc.parallelism":{"value":%g,"unit":"ratio"}}}`+"\n"+
		`{"correct":true,"attempted":100,"failed":0,"metrics":{"setup_s":{"value":%g,"unit":"s"},"round_ms":{"value":%g,"unit":"ms"},"alloc_mb_per_round":{"value":%g,"unit":"MB"},"live_heap_mb":{"value":%g,"unit":"MB"}}}`+"\n",
		gomaxprocs, commit, seed, op, par, setup, round, alloc, live)
}

func mustParse(t *testing.T, out []byte) result {
	t.Helper()
	r, err := parseRun(out)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// verdicts maps each metric row of compare's output to its verdict.
func verdicts(out string) map[string]string {
	got := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) > 2 && (strings.Contains(f[0], "_") || strings.Contains(f[0], ".")) {
			got[f[0]] = f[len(f)-1]
		}
	}
	return got
}

func TestCompareVerdicts(t *testing.T) {
	var base, head []result
	for i := 0; i < 10; i++ {
		// setup_s: the same on both sides. round_ms: the head wins every
		// pair by 5 %, inside a base spread of ±30 %. alloc: the head is
		// 7 % lower, far outside a tight spread. live heap: the head is
		// 10 % higher. op.scrabble.ms: the head wins every pair clearly;
		// parallelism: the head loses every pair clearly.
		wobble := float64(i%5) - 2
		base = append(base, mustParse(t, cannedRun("aaa", 600+i, 2, 1.0, 400*(1+0.15*wobble), 89.3+0.001*wobble, 30, 100+wobble, 1.5+0.01*wobble)))
		head = append(head, mustParse(t, cannedRun("bbb", 600+i, 2, 1.0, 380*(1+0.15*wobble), 82.9+0.001*wobble, 33, 60+wobble, 1.2+0.01*wobble)))
	}
	var out bytes.Buffer
	if err := compare(&out, testSpec, base, head); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"setup_s":            "held",
		"round_ms":           "unresolved",
		"alloc_mb_per_round": "gain",
		"live_heap_mb":       "worse",
		"op.scrabble.ms":     "gain",
		"proc.parallelism":   "loss",
	}
	got := verdicts(out.String())
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s: verdict %q, want %q\n%s", name, got[name], v, out.String())
		}
	}
	if !strings.Contains(out.String(), "89.3 [89.3, 89.3]") || !strings.Contains(out.String(), "10/10") {
		t.Errorf("want the base alloc median [q1, q3] and 10/10 pairs won:\n%s", out.String())
	}
}

// Eight pairs won of ten is short of nine tenths, however large the gap.
func TestCompareNineTenthsRule(t *testing.T) {
	var base, head []result
	for i := 0; i < 10; i++ {
		alloc := 80.0
		if i < 2 {
			alloc = 95
		}
		base = append(base, mustParse(t, cannedRun("a", i, 2, 1, 400, 90, 30, 100, 1.5)))
		head = append(head, mustParse(t, cannedRun("b", i, 2, 1, 400, alloc, 30, 100, 1.5)))
	}
	var out bytes.Buffer
	if err := compare(&out, testSpec, base, head); err != nil {
		t.Fatal(err)
	}
	if v := verdicts(out.String())["alloc_mb_per_round"]; v != "held" {
		t.Errorf("alloc verdict %q with 8 of 10 pairs won, want held\n%s", v, out.String())
	}
}

func TestCompareRefusesOtherExperiments(t *testing.T) {
	base := []result{mustParse(t, cannedRun("a", 1, 2, 1, 400, 90, 30, 100, 1.5))}
	head := []result{mustParse(t, cannedRun("b", 2, 4, 1, 400, 90, 30, 100, 1.5))}
	err := compare(&bytes.Buffer{}, testSpec, base, head)
	if err == nil || !strings.Contains(err.Error(), "gomaxprocs") {
		t.Errorf("GOMAXPROCS 2 against 4: err = %v, want a refusal naming gomaxprocs", err)
	}
	head = []result{mustParse(t, cannedRun("b", 2, 2, 1, 400, 90, 30, 100, 1.5))}
	if err := compare(&bytes.Buffer{}, testSpec, base, head); err != nil {
		t.Errorf("runs differing only in commit and seed refused: %v", err)
	}
}

func TestParseRunNeedsTwoLines(t *testing.T) {
	if _, err := parseRun([]byte(`{"correct":true}`)); err == nil {
		t.Error("one line parsed")
	}
}

// The cut points of Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4}, [3]float64{1, 4, 5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}
