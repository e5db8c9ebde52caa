package metrics

import (
	"sync"
	"testing"
)

// TestBatchZeroValueUsable: a Batch needs no construction; its bumps reach
// Default on Flush.
func TestBatchZeroValueUsable(t *testing.T) {
	base := Default.Snapshot()
	var b Batch
	b.IncAtomic()
	b.IncAtomic()
	b.IncPark()
	b.Flush()
	d := Default.Snapshot().Delta(base)
	if d.Get(Atomic) != 2 || d.Get(Park) != 1 {
		t.Fatalf("delta after Flush = %+v, want atomic 2 and park 1", d.Counts)
	}
}

// TestBatchFlushResets: Flush zeroes the batch, so a second Flush adds
// nothing, and flushing an empty batch leaves every counter where it was.
func TestBatchFlushResets(t *testing.T) {
	var b Batch
	b.IncWait()
	b.IncNotify()
	b.IncStmAbort()
	b.IncStmExtend()
	b.Flush()
	if b != (Batch{}) {
		t.Fatalf("batch after Flush = %+v, want zero", b.n)
	}
	base := Default.Snapshot()
	b.Flush()
	var empty Batch
	empty.Flush()
	if d := Default.Snapshot().Delta(base); d != (Snapshot{}) {
		t.Fatalf("flushing empty batches moved the recorder: %+v", d.Counts)
	}
}

// TestBatchConcurrentFlushExact: goroutines that each own a batch and flush
// it now and then sum exactly in Default. Run under -race it also checks
// that a batch's lanes are touched by its owner only.
func TestBatchConcurrentFlushExact(t *testing.T) {
	const workers, perWorker, flushEvery = 8, 5000, 97
	base := Default.Snapshot()
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var b Batch
			for j := 1; j <= perWorker; j++ {
				b.IncAtomic()
				if j%3 == 0 {
					b.IncPark()
				}
				if j%flushEvery == 0 {
					b.Flush()
				}
			}
			b.Flush()
		}()
	}
	wg.Wait()
	d := Default.Snapshot().Delta(base)
	if got, want := d.Get(Atomic), int64(workers*perWorker); got != want {
		t.Errorf("atomic = %d, want %d", got, want)
	}
	if got, want := d.Get(Park), int64(workers*(perWorker/3)); got != want {
		t.Errorf("park = %d, want %d", got, want)
	}
}
