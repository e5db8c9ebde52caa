package hdr

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"renaissance/internal/stats"
)

func TestSlotRoundTrip(t *testing.T) {
	// Every recorded value must land in a slot whose bounds contain it and
	// whose width respects the resolution guarantee.
	vals := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, (1 << 20) + 12345, math.MaxInt64 / 2}
	for _, v := range vals {
		idx := slotFor(v)
		lower, upper := slotBounds(idx)
		if v < lower || v >= upper {
			t.Errorf("value %d mapped to slot %d = [%d, %d)", v, idx, lower, upper)
		}
		if lower >= subBucketCount {
			if width := upper - lower; float64(width) > float64(lower)/float64(subBucketHalf)+1 {
				t.Errorf("slot [%d, %d): width %d exceeds 1/%d of lower bound", lower, upper, width, subBucketHalf)
			}
		}
	}
	// Slots tile the value range: consecutive indices abut.
	for i := 0; i < slotCount-1; i++ {
		_, upper := slotBounds(i)
		lower, _ := slotBounds(i + 1)
		if upper != lower {
			t.Fatalf("slots %d and %d do not abut: upper %d vs lower %d", i, i+1, upper, lower)
		}
	}
}

// TestQuantileVsExactPercentile is the satellite property test: on random
// samples, Quantile must agree with exact stats.Percentile up to the
// documented bucket resolution plus the gap between the neighboring ranked
// samples that linear rank interpolation spans.
func TestQuantileVsExactPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	distributions := map[string]func() int64{
		"uniform":   func() int64 { return rng.Int63n(1_000_000) },
		"exp":       func() int64 { return int64(rng.ExpFloat64() * 50_000) },
		"lognormal": func() int64 { return int64(math.Exp(rng.NormFloat64()*2 + 8)) },
		"bimodal": func() int64 {
			if rng.Intn(100) < 95 {
				return 1_000 + rng.Int63n(500)
			}
			return 900_000 + rng.Int63n(100_000)
		},
	}
	quantiles := []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999}
	for name, draw := range distributions {
		for _, n := range []int{10, 1_000, 50_000} {
			h := New()
			samples := make([]float64, n)
			for i := range samples {
				v := draw()
				samples[i] = float64(v)
				h.Record(v)
			}
			sorted := append([]float64(nil), samples...)
			sort.Float64s(sorted)
			for _, q := range quantiles {
				got := float64(h.Quantile(q))
				exact := stats.Percentile(samples, q)
				// stats.Percentile interpolates between the ranked samples at
				// floor/ceil of q·(n−1); the histogram answers with the
				// nearest-rank sample's slot. Bound the answer by the ranked
				// neighborhood both rules can land in, widened by the bucket
				// resolution.
				pos := q * float64(n-1)
				lo := int(math.Floor(pos)) - 1
				hi := int(math.Ceil(pos)) + 1
				if lo < 0 {
					lo = 0
				}
				if hi > n-1 {
					hi = n - 1
				}
				minOK := sorted[lo] * (1 - 2.0/subBucketCount)
				maxOK := sorted[hi]*(1+2.0/subBucketCount) + 1
				if got < minOK || got > maxOK {
					t.Errorf("%s n=%d q=%g: Quantile=%g outside [%g, %g] (exact percentile %g)",
						name, n, q, got, minOK, maxOK, exact)
				}
			}
		}
	}
}

func TestQuantileBoundaries(t *testing.T) {
	h := New()
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}

	// Single value: every quantile is exact, including q=0 and q=1.
	h.Record(123_456)
	for _, q := range []float64{0, 0.001, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 123_456 {
			t.Errorf("single-value Quantile(%g) = %d, want 123456", q, got)
		}
	}

	// Boundary quantiles return the exact tracked extremes even though the
	// interior uses bucket midpoints.
	rng := rand.New(rand.NewSource(3))
	h = New()
	min, max := int64(math.MaxInt64), int64(0)
	for i := 0; i < 10_000; i++ {
		v := rng.Int63n(5_000_000)
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
		h.Record(v)
	}
	if got := h.Quantile(0); got != min {
		t.Errorf("Quantile(0) = %d, want exact min %d", got, min)
	}
	if got := h.Quantile(1); got != max {
		t.Errorf("Quantile(1) = %d, want exact max %d", got, max)
	}
	if h.Min() != min || h.Max() != max {
		t.Errorf("Min/Max = %d/%d, want %d/%d", h.Min(), h.Max(), min, max)
	}

	// Negative values clamp to zero rather than corrupting the layout.
	h = New()
	h.Record(-5)
	if h.Quantile(1) != 0 || h.Count() != 1 {
		t.Error("negative record did not clamp to 0")
	}
}

func TestConcurrentRecording(t *testing.T) {
	// Many goroutines recording into one histogram must lose nothing; run
	// under -race via RACE_PKGS.
	h := New()
	const workers, perWorker = 8, 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWorker; i++ {
				h.Record(rng.Int63n(1 << 30))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("Count = %d, want %d", got, workers*perWorker)
	}
	sum := int64(0)
	for i := range h.counts {
		sum += h.counts[i].Load()
	}
	if sum != workers*perWorker {
		t.Fatalf("slot sum = %d, want %d", sum, workers*perWorker)
	}
}

func TestReset(t *testing.T) {
	h := New()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Error("Reset did not empty the histogram")
	}
	h.Record(7)
	if h.Quantile(1) != 7 {
		t.Error("histogram unusable after Reset")
	}
}
