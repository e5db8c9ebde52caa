package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tab := &Table{Title: "T", Headers: []string{"name", "value"}}
	tab.AddRow("short", 1)
	tab.AddRow("a-much-longer-name", 2.5)
	var buf bytes.Buffer
	if err := tab.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "T" {
		t.Errorf("title line = %q", lines[0])
	}
	// Header and separator must align to the widest cell.
	if !strings.HasPrefix(lines[1], "name") || !strings.Contains(lines[1], "value") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "------------------") {
		t.Errorf("separator = %q", lines[2])
	}
	if !strings.Contains(out, "a-much-longer-name") || !strings.Contains(out, "2.5") {
		t.Errorf("rows missing:\n%s", out)
	}
}

func TestBarChart(t *testing.T) {
	var buf bytes.Buffer
	bars := []Bar{
		{Label: "big", Value: 10},
		{Label: "small", Value: 2.5},
		{Label: "negative", Value: -5},
	}
	if err := BarChart(&buf, "chart", bars, 20); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "####################") {
		t.Errorf("max bar not full width:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Errorf("negative sign missing:\n%s", out)
	}
	if !strings.Contains(out, "   10.00\n") {
		t.Errorf("value not printed last on its line:\n%s", out)
	}
	// Zero-only bars must not divide by zero.
	if err := BarChart(&buf, "zero", []Bar{{Label: "z", Value: 0}}, 10); err != nil {
		t.Fatal(err)
	}
}

func TestScatter(t *testing.T) {
	var buf bytes.Buffer
	pts := []ScatterPoint{
		{X: 0, Y: 0, Symbol: 'A'},
		{X: 1, Y: 1, Symbol: 'B'},
		{X: 0.5, Y: 0.5, Symbol: 'C'},
	}
	if err := Scatter(&buf, "title", "x", "y", pts, 30, 10); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, sym := range []string{"A", "B", "C"} {
		if !strings.Contains(out, sym) {
			t.Errorf("symbol %s missing:\n%s", sym, out)
		}
	}
	// Collisions of distinct symbols render '+'.
	buf.Reset()
	coll := []ScatterPoint{{X: 0, Y: 0, Symbol: 'A'}, {X: 0, Y: 0, Symbol: 'B'}, {X: 1, Y: 1, Symbol: 'Z'}}
	if err := Scatter(&buf, "t", "x", "y", coll, 10, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "+") {
		t.Errorf("collision marker missing:\n%s", buf.String())
	}
	// Empty input.
	buf.Reset()
	if err := Scatter(&buf, "t", "x", "y", nil, 10, 5); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no points") {
		t.Error("empty scatter not handled")
	}
}

func TestSortBarsDesc(t *testing.T) {
	bars := []Bar{{Value: 1}, {Value: 5}, {Value: 3}}
	SortBarsDesc(bars)
	if bars[0].Value != 5 || bars[2].Value != 1 {
		t.Errorf("sorted = %v", bars)
	}
}
