package chaos

import (
	"errors"
	"testing"
)

// collect records the decision stream of one point over n trials starting
// from a fresh Configure.
func collect(seed int64, rate float64, name string, n int) []bool {
	Configure(seed, rate)
	defer Disable()
	out := make([]bool, n)
	for i := range out {
		out[i] = Maybe(name)
	}
	return out
}

func TestDisabledIsInert(t *testing.T) {
	Disable()
	for i := 0; i < 1000; i++ {
		if Maybe("inert.point") {
			t.Fatal("Maybe fired while disabled")
		}
		if err := Fail("inert.point"); err != nil {
			t.Fatalf("Fail returned %v while disabled", err)
		}
	}
}

func TestZeroRateConfiguresButStaysDormant(t *testing.T) {
	Configure(42, 0)
	defer Disable()
	if on.Load() {
		t.Error("rate 0 left the engine enabled")
	}
	if Seed() != 42 {
		t.Errorf("Seed = %d, want 42", Seed())
	}
	if Maybe("dormant.point") {
		t.Error("Maybe fired at rate 0")
	}
}

func TestSameSeedSameDecisionStream(t *testing.T) {
	a := collect(7, 0.3, "det.point", 5000)
	b := collect(7, 0.3, "det.point", 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs across identical configurations", i)
		}
	}
}

func TestDifferentSeedsDifferentStreams(t *testing.T) {
	a := collect(1, 0.3, "seed.point", 5000)
	b := collect(2, 0.3, "seed.point", 5000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("seeds 1 and 2 produced identical decision streams")
	}
}

func TestFireRateTracksConfiguredRate(t *testing.T) {
	const n, rate = 20000, 0.25
	fired := 0
	for _, f := range collect(99, rate, "rate.point", n) {
		if f {
			fired++
		}
	}
	got := float64(fired) / n
	if got < rate-0.05 || got > rate+0.05 {
		t.Errorf("empirical fire rate %.3f, want ~%.2f", got, rate)
	}
}

func TestRateClamping(t *testing.T) {
	Configure(1, 7.5) // clamped to 1: every trial fires
	defer Disable()
	if Rate() != 1 {
		t.Errorf("Rate = %v, want 1 after clamping", Rate())
	}
	for i := 0; i < 100; i++ {
		if !Maybe("clamp.point") {
			t.Fatal("rate 1 did not fire on every trial")
		}
	}
	Configure(1, -3) // clamped to 0: dormant
	if on.Load() {
		t.Error("negative rate left the engine enabled")
	}
}

func TestPerPointOverride(t *testing.T) {
	Configure(5, 0) // dormant globally
	defer Disable()
	SetRate("hot.point", 1)
	if !on.Load() {
		t.Fatal("SetRate > 0 did not arm the engine")
	}
	if !Maybe("hot.point") {
		t.Error("overridden point at rate 1 did not fire")
	}
	if Maybe("cold.point") {
		t.Error("point without override fired despite global rate 0")
	}
}

func TestFailReturnsTypedError(t *testing.T) {
	Configure(3, 0)
	defer Disable()
	SetRate("io.point", 1)
	err := Fail("io.point")
	var inj *InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("Fail returned %v (%T), want *InjectedError", err, err)
	}
	if inj.Point != "io.point" {
		t.Errorf("InjectedError.Point = %q, want io.point", inj.Point)
	}
}

func TestStatsCountTrialsAndFires(t *testing.T) {
	Configure(11, 0.5)
	defer Disable()
	const n = 1000
	for i := 0; i < n; i++ {
		Maybe("stats.point")
	}
	fires := FireCount("stats.point")
	if fires == 0 || fires == n {
		t.Errorf("FireCount = %d at rate 0.5 over %d trials", fires, n)
	}
	found := false
	for _, s := range Stats() {
		if s.Name == "stats.point" {
			found = true
			if s.Trials != n || s.Fires != fires {
				t.Errorf("Stats = %+v, want Trials=%d Fires=%d", s, n, fires)
			}
		}
	}
	if !found {
		t.Error("stats.point missing from Stats()")
	}
}

func TestConfigureResetsCounters(t *testing.T) {
	Configure(1, 1)
	Maybe("reset.point")
	Configure(2, 1)
	defer Disable()
	if FireCount("reset.point") != 0 {
		t.Errorf("FireCount = %d after reconfigure, want 0", FireCount("reset.point"))
	}
}
