package loadgen

import (
	"errors"
	"sort"
)

// SweepPoint is one offered rate of a saturation sweep with its measured
// result.
type SweepPoint struct {
	Rate   float64
	Result *Result
}

// DefaultKneeFactor is the p99-vs-p50 divergence ratio that marks a sweep
// point as saturated when no factor is given.
const DefaultKneeFactor = 8.0

// Sweep walks the offered load upward through rates (sorted ascending),
// building a fresh target per point so queue state from one rate cannot
// leak into the next, and returns the per-rate results.
func Sweep(factory func() (Target, error), rates []float64, opt Options) ([]SweepPoint, error) {
	if len(rates) == 0 {
		return nil, errors.New("loadgen: empty sweep")
	}
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	out := make([]SweepPoint, 0, len(sorted))
	for _, rate := range sorted {
		t, err := factory()
		if err != nil {
			return out, err
		}
		o := opt
		o.Rate = rate
		res, err := Run(t, o)
		cerr := t.Close()
		if err != nil {
			return out, err
		}
		if cerr != nil {
			return out, cerr
		}
		out = append(out, SweepPoint{Rate: rate, Result: res})
	}
	return out, nil
}

// Knee returns the index of the first sweep point past the saturation
// knee, or -1 when every point is below it. A point is saturated when its
// p99 has diverged from its own p50 by at least factor (the service keeps
// a healthy median but its tail is queueing), or when its p99 exceeds
// factor times the p99 of the sweep's lowest rate (deep saturation, where
// the whole distribution — median included — has shifted up and the
// p99/p50 ratio alone flattens out again). factor <= 0 means
// DefaultKneeFactor. Points that completed nothing are skipped: an
// all-rejected point says the admission path saturated, not the service
// latency.
func Knee(points []SweepPoint, factor float64) int {
	if factor <= 0 {
		factor = DefaultKneeFactor
	}
	baseline := 0.0
	for i, pt := range points {
		r := pt.Result
		if r == nil || r.Completed == 0 {
			continue
		}
		p50 := r.PercentileMillis(0.50)
		p99 := r.PercentileMillis(0.99)
		if baseline == 0 {
			baseline = p99
			if i == 0 {
				continue // the lowest rate defines the baseline
			}
		}
		if p99 >= factor*p50 || (baseline > 0 && p99 >= factor*baseline) {
			return i
		}
	}
	return -1
}
