package forkjoin

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversAllIndices checks that every index in [0, n) is processed
// exactly once across grain choices, including the automatic one.
func TestForCoversAllIndices(t *testing.T) {
	for _, tc := range []struct{ n, grain int }{
		{1, 1}, {7, 1}, {7, 3}, {100, 1}, {100, 0}, {1000, 17}, {1000, 0},
		{3, 100}, // grain larger than n: single-chunk fast path
	} {
		hits := make([]atomic.Int32, tc.n)
		For(tc.n, tc.grain, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d grain=%d: index %d processed %d times", tc.n, tc.grain, i, got)
			}
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	ran := false
	For(0, 1, func(lo, hi int) { ran = true })
	For(-5, 1, func(lo, hi int) { ran = true })
	if ran {
		t.Error("body ran for empty range")
	}
}

// TestForMaxBoundsConcurrency checks that maxPar=1 never runs two chunks
// at once (no helpers are enqueued, the caller runs everything).
func TestForMaxBoundsConcurrency(t *testing.T) {
	var running, peak atomic.Int32
	err := Shared().ForRetryE(64, 1, 1, 0, func(lo, hi, _ int) {
		if r := running.Add(1); r > peak.Load() {
			peak.Store(r)
		}
		time.Sleep(50 * time.Microsecond)
		running.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got != 1 {
		t.Errorf("maxPar=1 peak concurrency = %d", got)
	}
}

// TestForNestedExecutor exercises a For issued from inside a For body —
// the shape the RDD engine hits when a shuffle runs inside partition
// tasks. Caller-runs chunk claiming must complete it without deadlock.
func TestForNestedExecutor(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var total atomic.Int64
		For(8, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				For(100, 7, func(ilo, ihi int) {
					total.Add(int64(ihi - ilo))
				})
			}
		})
		if total.Load() != 800 {
			t.Errorf("nested total = %d, want 800", total.Load())
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested For deadlocked")
	}
}

// TestForNestedUnderOnce reproduces the exact engine hazard: N tasks all
// enter a sync.Once whose body runs a nested parallel-for while the
// losers block inside the Once on pool workers.
func TestForNestedUnderOnce(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var once sync.Once
		var inner atomic.Int64
		For(16, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				once.Do(func() {
					For(64, 1, func(ilo, ihi int) {
						inner.Add(int64(ihi - ilo))
					})
				})
			}
		})
		if inner.Load() != 64 {
			t.Errorf("inner total = %d, want 64", inner.Load())
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("For under sync.Once deadlocked")
	}
}

// TestExecutorConcurrentForRace hammers the shared pool with concurrent,
// overlapping For calls (the shape of parallel benchmark workloads all
// running on one executor); run under -race by make stress.
func TestExecutorConcurrentForRace(t *testing.T) {
	const callers = 8
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				var sum atomic.Int64
				n := 50 + c*13 + iter
				For(n, 0, func(lo, hi int) {
					local := int64(0)
					for i := lo; i < hi; i++ {
						local += int64(i)
					}
					sum.Add(local)
				})
				want := int64(n*(n-1)) / 2
				if sum.Load() != want {
					t.Errorf("caller %d iter %d: sum = %d, want %d", c, iter, sum.Load(), want)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestForOnPrivatePool checks the job against a pool other than Shared.
func TestForOnPrivatePool(t *testing.T) {
	p := NewPool(2)
	var n atomic.Int64
	if err := p.ForRetryE(100, 3, 0, 0, func(lo, hi, _ int) { n.Add(int64(hi - lo)) }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 100 {
		t.Errorf("total = %d", n.Load())
	}
}

// A job whose caller ran every chunk takes back the helpers no worker
// picked up: with every worker blocked, the inject queue is empty again
// when ForRetryE returns.
func TestExecutorRetractsUntakenHelpers(t *testing.T) {
	p := NewPool(2)
	release := make(chan struct{})
	defer close(release)
	var blocked atomic.Int32
	for range p.workers {
		submit(p, func(*Worker) any { blocked.Add(1); <-release; return nil })
	}
	for blocked.Load() < int32(len(p.workers)) {
		time.Sleep(100 * time.Microsecond)
	}
	for range 10 {
		if err := p.ForRetryE(100, 1, 0, 0, func(lo, hi, _ int) {}); err != nil {
			t.Fatal(err)
		}
		if !p.inject.Empty() {
			t.Fatal("helpers no worker took are still queued after ForRetryE returned")
		}
	}
}
