package stats

import (
	"math"
	"testing"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %g, want %g (tol %g)", name, got, want, tol)
	}
}

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, "Mean", Mean(xs), 5, 1e-12)
	approx(t, "Variance", Variance(xs), 32.0/7, 1e-12)
	approx(t, "StdDev", StdDev(xs), math.Sqrt(32.0/7), 1e-12)
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/singleton edge cases wrong")
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

func TestRegIncBeta(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		approx(t, "I_x(1,1)", RegIncBeta(1, 1, x), x, 1e-10)
	}
	// I_{0.5}(a,a) = 0.5 by symmetry.
	for _, a := range []float64{0.5, 2, 7.5} {
		approx(t, "I_.5(a,a)", RegIncBeta(a, a, 0.5), 0.5, 1e-10)
	}
	// Complement identity I_x(a,b) = 1 - I_{1-x}(b,a).
	approx(t, "complement", RegIncBeta(2, 5, 0.3), 1-RegIncBeta(5, 2, 0.7), 1e-10)
}

func TestStudentTCDF(t *testing.T) {
	// Symmetry around 0.
	approx(t, "CDF(0)", StudentTCDF(0, 7), 0.5, 1e-12)
	approx(t, "symmetry", StudentTCDF(1.3, 9)+StudentTCDF(-1.3, 9), 1, 1e-10)
	// df=1 is the Cauchy distribution: F(t) = 1/2 + atan(t)/pi.
	for _, tv := range []float64{-3, -1, 0.5, 2} {
		want := 0.5 + math.Atan(tv)/math.Pi
		approx(t, "cauchy", StudentTCDF(tv, 1), want, 1e-8)
	}
	// Known quantile: for df=10, P(T <= 2.228) ~ 0.975.
	approx(t, "df10", StudentTCDF(2.228, 10), 0.975, 1e-3)
	// Infinite arguments.
	if StudentTCDF(math.Inf(-1), 5) != 0 || StudentTCDF(math.Inf(1), 5) != 1 {
		t.Error("infinite-argument CDF wrong")
	}
}

func TestStudentTQuantile(t *testing.T) {
	// Round-trip: CDF(quantile(conf)) = 1-(1-conf)/2.
	for _, df := range []float64{3, 10, 30} {
		for _, conf := range []float64{0.9, 0.95, 0.99} {
			q := StudentTQuantile(conf, df)
			got := StudentTCDF(q, df)
			approx(t, "roundtrip", got, 1-(1-conf)/2, 1e-6)
		}
	}
	// Classic table value: t_{0.975, 10} = 2.228.
	approx(t, "t975df10", StudentTQuantile(0.95, 10), 2.228, 2e-3)
	if StudentTQuantile(0, 5) != 0 {
		t.Error("conf=0 quantile should be 0")
	}
	if !math.IsInf(StudentTQuantile(1, 5), 1) {
		t.Error("conf=1 quantile should be +Inf")
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{10, 11, 9, 10.5, 9.5, 10.2, 9.8, 10.1}
	mean, hw, err := MeanCI(xs, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, "mean", mean, Mean(xs), 1e-12)
	if hw <= 0 {
		t.Errorf("half-width = %g, want > 0", hw)
	}
	// Higher confidence gives a wider interval.
	_, hw95, _ := MeanCI(xs, 0.95)
	if hw <= hw95 {
		t.Errorf("99%% CI (%g) should be wider than 95%% CI (%g)", hw, hw95)
	}
	if _, _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Error("want error for insufficient data")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Mean != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summarize = %+v", s)
	}
}
