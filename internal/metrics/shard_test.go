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

// No lost updates: heavy concurrent bumps from many goroutines, pinned
// handles on one metric and hashed adds over every metric, must sum exactly.
// Run with -race to also check the shard plumbing is data-race free.
func TestRecorderShardedStressExact(t *testing.T) {
	var r Recorder
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			loc := r.LocalAt(i) // half pinned ...
			for j := 0; j < perWorker; j++ {
				if i%2 == 0 {
					loc.IncAtomic()
				} else {
					r.Add(Metric(j%int(NumMetrics)), 1) // ... half hashed
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
		go func(i int) {
			defer wg.Done()
			loc := r.LocalAt(i)
			for j := 0; j < perWorker; j++ {
				loc.IncAtomic()
			}
		}(i)
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

// Local handles pinned to different stripes must aggregate into the same
// totals as the hashed path.
func TestLocalAggregatesAcrossShards(t *testing.T) {
	var r Recorder
	a := r.LocalAt(0)
	b := r.LocalAt(1)
	a.IncAtomic()
	a.AddArray(3)
	b.IncAtomic()
	b.AddIDynamic(7)
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

func TestLocalWrapperParity(t *testing.T) {
	var r Recorder
	loc := r.Local()
	loc.IncWait()
	loc.IncNotify()
	loc.IncAtomic()
	loc.AddAtomic(2)
	loc.IncPark()
	loc.IncObject()
	loc.IncArray()
	loc.AddArray(3)
	loc.IncMethod()
	loc.IncIDynamic()
	loc.AddIDynamic(5)
	want := map[Metric]int64{
		Wait: 1, Notify: 1, Atomic: 3, Park: 1,
		Object: 1, Array: 4, Method: 1, IDynamic: 6,
	}
	for m, w := range want {
		if got := r.Get(m); got != w {
			t.Errorf("Get(%v) = %d, want %d", m, got, w)
		}
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
