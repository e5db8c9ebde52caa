package core

import (
	"time"

	"renaissance/internal/hdr"
)

// LatencyReporter is optionally implemented by workloads that record
// per-request latencies into an HDR histogram (the serving-tier workloads
// do). The runner resets the histogram after warmup so the summary covers
// only the steady-state phase, then folds the percentiles into the run's
// Result.
type LatencyReporter interface {
	LatencyHistogram() *hdr.Histogram
}

// LatencySummary is the percentile block of a run's per-request latency
// distribution, extracted from an hdr.Histogram. Percentiles are
// nearest-rank with the histogram's bounded relative error (1/32).
type LatencySummary struct {
	Count      int64   `json:"count"`
	MinMillis  float64 `json:"minMillis"`
	P50Millis  float64 `json:"p50Millis"`
	P90Millis  float64 `json:"p90Millis"`
	P99Millis  float64 `json:"p99Millis"`
	P999Millis float64 `json:"p999Millis"`
	MaxMillis  float64 `json:"maxMillis"`
}

// SummarizeLatency extracts the summary from a histogram; nil when the
// histogram is nil or empty, so empty distributions vanish from JSON
// rather than reporting zeros.
func SummarizeLatency(h *hdr.Histogram) *LatencySummary {
	if h == nil || h.Count() == 0 {
		return nil
	}
	ms := func(v int64) float64 { return float64(v) / float64(time.Millisecond) }
	return &LatencySummary{
		Count:      h.Count(),
		MinMillis:  ms(h.Min()),
		P50Millis:  ms(h.Quantile(0.50)),
		P90Millis:  ms(h.Quantile(0.90)),
		P99Millis:  ms(h.Quantile(0.99)),
		P999Millis: ms(h.Quantile(0.999)),
		MaxMillis:  ms(h.Max()),
	}
}
