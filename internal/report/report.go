// Package report renders the paper's tables and figures as text: aligned
// tables, horizontal bar charts (Figures 2–6), and character-grid scatter
// plots (Figure 1). Everything writes to an io.Writer so the analyze CLI
// and the benchmark harness can share the renderers.
package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if t.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
			return err
		}
	}
	line := func(cells []string) error {
		var b strings.Builder
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintf(w, "%s\n", strings.TrimRight(b.String(), " "))
		return err
	}
	if err := line(t.Headers); err != nil {
		return err
	}
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Bar is one horizontal bar-chart entry.
type Bar struct {
	Label string
	Value float64
}

// BarChart renders horizontal bars scaled to width characters, with
// negative values extending left of the axis.
func BarChart(w io.Writer, title string, bars []Bar, width int) error {
	if _, err := fmt.Fprintf(w, "%s\n", title); err != nil {
		return err
	}
	maxAbs := 0.0
	maxLabel := 0
	for _, b := range bars {
		if math.Abs(b.Value) > maxAbs {
			maxAbs = math.Abs(b.Value)
		}
		if len(b.Label) > maxLabel {
			maxLabel = len(b.Label)
		}
	}
	if maxAbs == 0 {
		maxAbs = 1
	}
	for _, b := range bars {
		n := int(math.Round(math.Abs(b.Value) / maxAbs * float64(width)))
		bar := strings.Repeat("#", n)
		sign := " "
		if b.Value < 0 {
			sign = "-"
		}
		if _, err := fmt.Fprintf(w, "  %-*s %s%-*s %8.2f\n",
			maxLabel, b.Label, sign, width, bar, b.Value); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// ScatterPoint is one point of a text scatter plot.
type ScatterPoint struct {
	X, Y   float64
	Symbol rune // one symbol per suite, as in Figure 1's legend
}

// Scatter renders points on a cols×rows character grid with axis ranges
// derived from the data (the Figure 1 renderer).
func Scatter(w io.Writer, title, xLabel, yLabel string, pts []ScatterPoint, cols, rows int) error {
	if len(pts) == 0 {
		_, err := fmt.Fprintf(w, "%s\n  (no points)\n", title)
		return err
	}
	minX, maxX := pts[0].X, pts[0].X
	minY, maxY := pts[0].Y, pts[0].Y
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]rune, rows)
	for r := range grid {
		grid[r] = []rune(strings.Repeat(" ", cols))
	}
	for _, p := range pts {
		c := int((p.X - minX) / (maxX - minX) * float64(cols-1))
		r := rows - 1 - int((p.Y-minY)/(maxY-minY)*float64(rows-1))
		if grid[r][c] != ' ' && grid[r][c] != p.Symbol {
			grid[r][c] = '+' // collision of different suites
		} else {
			grid[r][c] = p.Symbol
		}
	}
	if _, err := fmt.Fprintf(w, "%s  (y: %s, x: %s)\n", title, yLabel, xLabel); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "  %7.2f +%s\n", maxY, strings.Repeat("-", cols)); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "          |%s\n", string(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "  %7.2f +%s\n            %-8.2f%*s%.2f\n\n",
		minY, strings.Repeat("-", cols), minX, cols-14, "", maxX)
	return err
}

// SortBarsDesc orders bars by value, descending.
func SortBarsDesc(bars []Bar) {
	sort.Slice(bars, func(i, j int) bool { return bars[i].Value > bars[j].Value })
}
