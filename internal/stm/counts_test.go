// The STM's metric counts gate: a transaction counts its events into its
// own metrics.Batch and flushes them when Atomically returns and before it
// blocks. These tests pin that the counts stay exact (the same per-event
// numbers a recorder add per event would give), that nothing reaches the
// recorder from inside a transaction body, and that a parked waiter's wait
// is visible while it blocks.
package stm

import (
	"testing"
	"time"

	"renaissance/internal/metrics"
)

// atomicDelta runs f on the calling goroutine and returns how far it moved
// the recorder's atomic count.
func atomicDelta(f func()) int64 {
	before := metrics.Default.Get(metrics.Atomic)
	f()
	return metrics.Default.Get(metrics.Atomic) - before
}

// TestTransactionCountsExact: with one goroutine and no waiters, a
// transaction's atomic count is a closed formula of its shape. A begin
// counts 1 and a read 3 (two state loads and the value load). A read-write
// commit counts, per written ref, 2 to lock (state load and CAS) and 2 to
// publish (value store and unlock), plus 1 for the clock; with no commit
// in between, its read-set validation is skipped and counts nothing.
func TestTransactionCountsExact(t *testing.T) {
	const k = 5
	refs := make([]*Ref, k)
	for i := range refs {
		refs[i] = NewRef(i)
	}
	readAll := func(tx *Tx) int {
		sum := 0
		for _, r := range refs {
			sum += tx.Read(r).(int)
		}
		return sum
	}

	if got := atomicDelta(func() {
		_ = Atomically(func(tx *Tx) error { readAll(tx); return nil })
	}); got != 1+3*k {
		t.Errorf("read-only over %d refs: atomic moved %d, want %d", k, got, 1+3*k)
	}

	const w = 2
	if got := atomicDelta(func() {
		_ = Atomically(func(tx *Tx) error {
			sum := readAll(tx)
			tx.Write(refs[0], sum)
			tx.Write(refs[k-1], -sum)
			tx.Read(refs[0]) // served from the write set: counts nothing
			return nil
		})
	}); got != 2+3*k+4*w {
		t.Errorf("read-write (%d reads, %d writes): atomic moved %d, want %d", k, w, got, 2+3*k+4*w)
	}

	if got := atomicDelta(func() { ReadAtomic(refs[1]) }); got != 3 {
		t.Errorf("ReadAtomic: atomic moved %d, want 3", got)
	}
}

// TestTransactionCountsBatchedUntilReturn: reads inside a body count into
// the transaction, not the recorder; the recorder moves once, when
// Atomically returns.
func TestTransactionCountsBatchedUntilReturn(t *testing.T) {
	a, b := NewRef(1), NewRef(2)
	var between int64
	total := atomicDelta(func() {
		_ = Atomically(func(tx *Tx) error {
			tx.Read(a)
			before := metrics.Default.Get(metrics.Atomic)
			tx.Read(b)
			between = metrics.Default.Get(metrics.Atomic) - before
			return nil
		})
	})
	if between != 0 {
		t.Errorf("recorder moved by %d between two reads inside the body", between)
	}
	if total != 1+3*2 {
		t.Errorf("after return: atomic moved %d, want %d", total, 1+3*2)
	}
}

// TestRetryParkedWaitVisibleWhileBlocked: a transaction parked in Retry has
// flushed its counts, so its wait is in the recorder before anything wakes
// it.
func TestRetryParkedWaitVisibleWhileBlocked(t *testing.T) {
	flag := NewRef(false)
	waitBefore := metrics.Default.Get(metrics.Wait)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = Atomically(func(tx *Tx) error {
			if !tx.Read(flag).(bool) {
				tx.Retry()
			}
			return nil
		})
	}()

	deadline := time.Now().Add(5 * time.Second)
	for metrics.Default.Get(metrics.Wait) == waitBefore {
		if time.Now().After(deadline) {
			t.Fatal("the parked waiter's wait never reached the recorder")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case <-done:
		t.Fatal("the waiter returned before the flag was set")
	default:
	}

	_ = Atomically(func(tx *Tx) error { tx.Write(flag, true); return nil })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter never woke")
	}
	waitForNoWaiters(t)
}
