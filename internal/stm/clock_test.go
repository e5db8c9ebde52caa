package stm

import (
	"sync"
	"testing"
)

// Read-only transactions must not advance (or otherwise write) the global
// version clock — only read-write commits do. This keeps read-heavy STM
// workloads off the clock's cache line entirely.
func TestReadOnlyTransactionsDoNotAdvanceClock(t *testing.T) {
	r := NewRef(42)
	before := globalClock.v.Load()
	for i := 0; i < 100; i++ {
		if err := Atomically(func(tx *Tx) error {
			if got := tx.Read(r).(int); got != 42 {
				t.Fatalf("read %d", got)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := globalClock.v.Load(); got != before {
		t.Fatalf("read-only transactions advanced the clock: %d -> %d", before, got)
	}
	// A read-write commit does advance it, by exactly one.
	if err := Atomically(func(tx *Tx) error {
		tx.Write(r, 43)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := globalClock.v.Load(); got != before+1 {
		t.Fatalf("write commit moved clock %d -> %d, want +1", before, got)
	}
}

// Concurrent read-only transactions against concurrent writers stay
// consistent and race-free (exercised under -race by the Makefile).
func TestConcurrentReadersWithWriters(t *testing.T) {
	a := NewRef(0)
	b := NewRef(0)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = Atomically(func(tx *Tx) error {
					x := tx.Read(a).(int)
					y := tx.Read(b).(int)
					if x != y {
						t.Errorf("invariant broken: %d != %d", x, y)
					}
					return nil
				})
			}
		}()
	}
	for i := 1; i <= 200; i++ {
		if err := Atomically(func(tx *Tx) error {
			tx.Write(a, i)
			tx.Write(b, i)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
