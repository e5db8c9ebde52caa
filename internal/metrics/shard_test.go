package metrics

import (
	"runtime"
	"sync"
	"testing"
)

func TestNumShardsSane(t *testing.T) {
	n := numShards
	if n < 8 || n > maxShards {
		t.Fatalf("numShards = %d, want in [8, %d]", n, maxShards)
	}
	if n&(n-1) != 0 {
		t.Fatalf("numShards = %d, not a power of two", n)
	}
	if g := runtime.GOMAXPROCS(0); n < g && n < maxShards {
		t.Errorf("numShards = %d < GOMAXPROCS %d", n, g)
	}
}

// No lost updates: heavy concurrent adds from many goroutines, half on one
// metric and half spread over every metric, must sum exactly. Run with
// -race to also check the shard plumbing is data-race free.
func TestRecorderShardedStressExact(t *testing.T) {
	var r Recorder
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				if i%2 == 0 {
					r.Add(Atomic, 1) // half on one metric ...
				} else {
					r.Add(Metric(j%int(NumMetrics)), 1) // ... half on all
				}
			}
		}(i)
	}
	wg.Wait()
	var total int64
	for _, m := range AllMetrics() {
		total += r.Get(m)
	}
	if want := int64(workers * perWorker); total != want {
		t.Fatalf("lost updates: total = %d, want %d", total, want)
	}
}

// Sequential snapshots taken while writers only increment must be
// monotonically non-decreasing per metric, and the final snapshot after all
// writers join must be exact — the linearization contract of Snapshot/Delta
// under concurrent writers.
func TestSnapshotMonotonicUnderWriters(t *testing.T) {
	var r Recorder
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				r.Add(Atomic, 1)
			}
		}()
	}
	prev := int64(0)
	for k := 0; k < 100; k++ {
		s := r.Snapshot()
		got := s.Get(Atomic)
		if got < prev {
			t.Fatalf("snapshot %d went backwards: %d -> %d", k, prev, got)
		}
		if got > workers*perWorker {
			t.Fatalf("snapshot %d overshoots: %d > %d", k, got, workers*perWorker)
		}
		prev = got
	}
	wg.Wait()
	if got := r.Get(Atomic); got != workers*perWorker {
		t.Fatalf("final count = %d, want %d", got, workers*perWorker)
	}
	// Delta over the quiesced recorder against an empty baseline is exact.
	d := r.Snapshot().Delta(Snapshot{})
	if d.Get(Atomic) != workers*perWorker {
		t.Fatalf("delta = %d, want %d", d.Get(Atomic), workers*perWorker)
	}
}

// Adds made on separate goroutines land on whichever shards their stacks
// hash to; Get and Snapshot must both sum them into the same totals.
func TestAddAggregatesAcrossGoroutines(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for _, add := range []func(){
		func() { r.Add(Atomic, 1); r.Add(Array, 3) },
		func() { r.Add(Atomic, 1); r.Add(IDynamic, 7) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			add()
		}()
	}
	wg.Wait()
	if got := r.Get(Atomic); got != 2 {
		t.Errorf("Get(Atomic) = %d, want 2", got)
	}
	if got := r.Get(Array); got != 3 {
		t.Errorf("Get(Array) = %d, want 3", got)
	}
	if got := r.Get(IDynamic); got != 7 {
		t.Errorf("Get(IDynamic) = %d, want 7", got)
	}
	s := r.Snapshot()
	if s.Get(Atomic) != 2 || s.Get(Array) != 3 || s.Get(IDynamic) != 7 {
		t.Errorf("snapshot disagrees with Get: %+v", s.Counts)
	}
}

// The acceptance contract: counts are exact, not sampled. A deterministic
// workload replayed against a fresh recorder produces identical Delta
// totals every time.
func TestDeterministicWorkloadExactDelta(t *testing.T) {
	run := func() Snapshot {
		var r Recorder
		before := r.Snapshot()
		for i := 0; i < 1000; i++ {
			r.Add(Synch, 1)
			r.Add(Atomic, 2)
			if i%10 == 0 {
				r.Add(Object, 1)
			}
		}
		return r.Snapshot().Delta(before)
	}
	first := run()
	if first.Get(Synch) != 1000 || first.Get(Atomic) != 2000 || first.Get(Object) != 100 {
		t.Fatalf("unexpected totals: %+v", first.Counts)
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d diverged: %+v vs %+v", i, got.Counts, first.Counts)
		}
	}
}
