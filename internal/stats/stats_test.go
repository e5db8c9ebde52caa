package stats

import (
	"errors"
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", name, got, want, tol)
	}
}

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	approx(t, "Min", Min(xs), 1, 0)
	approx(t, "Max", Max(xs), 5, 0)
	approx(t, "Median odd", Median(xs), 3, 0)
	approx(t, "Median even", Median([]float64{1, 2, 3, 4}), 2.5, 0)
	if Min(nil) != 0 || Max(nil) != 0 || Median(nil) != 0 {
		t.Error("empty edge cases wrong")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	approx(t, "p0", Percentile(xs, 0), 10, 0)
	approx(t, "p50", Percentile(xs, 0.5), 30, 0)
	approx(t, "p100", Percentile(xs, 1), 50, 0)
	approx(t, "p25", Percentile(xs, 0.25), 20, 1e-12)
	approx(t, "p10", Percentile(xs, 0.1), 14, 1e-12)
}

// permuted returns 1..n in a scrambled order: the value of each element is
// its rank, so MedianCI's bounds read back as the ranks it chose.
func permuted(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i*7919%n + 1) // 7919 is prime, so coprime with n
	}
	return xs
}

func TestMedianCI(t *testing.T) {
	// The ranks (k, n−k+1) from hand-computed binomial tails: k is the
	// largest rank with P(Binomial(n, ½) ≤ k−1) ≤ 0.005. At n = 8,
	// P(≤ 0) = 1/256 ≈ 0.0039 and P(≤ 1) = 9/256; at n = 20, P(≤ 3) =
	// 1351/2²⁰ ≈ 0.0013 and P(≤ 4) = 6196/2²⁰ ≈ 0.0059; at n = 30,
	// P(≤ 7) = 2804012/2³⁰ ≈ 0.0026 and P(≤ 8) ≈ 0.0081.
	for _, c := range []struct{ n, lo, hi int }{{8, 1, 8}, {10, 1, 10}, {20, 4, 17}, {30, 8, 23}} {
		xs := permuted(c.n)
		before := append([]float64(nil), xs...)
		med, lo, hi, err := MedianCI(xs)
		if err != nil {
			t.Fatalf("n=%d: %v", c.n, err)
		}
		if lo != float64(c.lo) || hi != float64(c.hi) {
			t.Errorf("n=%d: ranks (%g, %g), want (%d, %d)", c.n, lo, hi, c.lo, c.hi)
		}
		approx(t, "median", med, float64(c.n+1)/2, 0)
		for i := range xs {
			if xs[i] != before[i] {
				t.Fatalf("n=%d: MedianCI reordered its input", c.n)
			}
		}
	}
	// Below n = 8 even [min, max] covers less than 99 %.
	for _, n := range []int{0, 1, 7} {
		if _, _, _, err := MedianCI(permuted(n)); !errors.Is(err, ErrInsufficientData) {
			t.Errorf("n=%d: err = %v, want ErrInsufficientData", n, err)
		}
	}
	// At large n the ranks approach the normal approximation
	// n/2 ± z₀.₉₉₅·√n/2 ≈ n/2 ± 1.29·√n.
	const n = 2000
	med, lo, hi, err := MedianCI(permuted(n))
	if err != nil {
		t.Fatal(err)
	}
	if !(lo <= med && med <= hi) {
		t.Errorf("n=%d: median %g outside [%g, %g]", n, med, lo, hi)
	}
	half := 1.29 * math.Sqrt(n)
	approx(t, "lo rank", lo, n/2-half, 2)
	approx(t, "hi rank", hi, n/2+half, 2)
}
