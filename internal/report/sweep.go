package report

import "fmt"

// SweepRow is one offered-rate measurement of an open-loop saturation
// sweep, pre-extracted into plain numbers so the renderer stays free of
// harness dependencies. Latencies are milliseconds.
type SweepRow struct {
	Rate       float64
	Throughput float64
	P50        float64
	P90        float64
	P99        float64
	P999       float64
	Completed  int64
	Rejected   int64
	Errors     int64
	Dropped    int64
	// Knee marks the first row past the saturation knee (p99 diverged
	// from p50); rendered as a marker column.
	Knee bool
}

// SweepTable renders a saturation sweep: one row per offered rate with
// throughput, the latency percentile ladder, and overload accounting. The
// knee row carries a "<- knee" marker — the offered load where the tail
// diverges and the service has saturated.
func SweepTable(title string, rows []SweepRow) *Table {
	t := &Table{
		Title: title,
		Headers: []string{"rate/s", "tput/s", "p50 ms", "p90 ms", "p99 ms",
			"p99.9 ms", "ok", "reject", "err", "drop", ""},
	}
	for _, r := range rows {
		mark := ""
		if r.Knee {
			mark = "<- knee"
		}
		t.AddRow(
			fmt.Sprintf("%.0f", r.Rate),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.3f", r.P50),
			fmt.Sprintf("%.3f", r.P90),
			fmt.Sprintf("%.3f", r.P99),
			fmt.Sprintf("%.3f", r.P999),
			r.Completed, r.Rejected, r.Errors, r.Dropped, mark)
	}
	return t
}
