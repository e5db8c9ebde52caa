// Package stats provides the statistics the harness and the benchmark
// report: minimum, maximum, median, percentiles and the exact 99 %
// confidence interval of the median.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrInsufficientData is returned when a statistic needs more observations
// than were provided.
var ErrInsufficientData = errors.New("stats: insufficient data")

// Min returns the minimum of xs, or 0 for an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or 0 for an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Percentile returns the q-th percentile (q in [0,1]) of xs using linear
// interpolation between closest ranks.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// ciTail is the most probability MedianCI's interval may miss on each
// side: the package's one confidence level is 99 %.
const ciTail = 0.005

// MedianCI returns the median of xs and the exact distribution-free 99 %
// confidence interval of the population median: the order statistics
// [x(k), x(n−k+1)] of the sorted sample, where k is the largest rank with
// P(Binomial(n, ½) ≤ k−1) ≤ 0.005. For any continuous distribution the
// count of observations below the population median is Binomial(n, ½),
// so the coverage is at least 99 % without assuming normal timings. It
// returns ErrInsufficientData when n < 8: below that even [min, max]
// misses with probability 2/2ⁿ > 1 %. xs is not reordered.
func MedianCI(xs []float64) (median, lo, hi float64, err error) {
	n := len(xs)
	lgN, _ := math.Lgamma(float64(n + 1))
	k, tail := 0, 0.0
	for ; k < n; k++ {
		// P(Binomial(n, ½) = k) = C(n, k) / 2ⁿ, in log space so that no
		// factor overflows at large n.
		lgK, _ := math.Lgamma(float64(k + 1))
		lgNK, _ := math.Lgamma(float64(n - k + 1))
		tail += math.Exp(lgN - lgK - lgNK - float64(n)*math.Ln2)
		if tail > ciTail {
			break
		}
	}
	if k == 0 {
		return 0, 0, 0, ErrInsufficientData
	}
	s := sorted(xs)
	return Median(s), s[k-1], s[n-k], nil
}
