package futures

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPromiseSuccess(t *testing.T) {
	p := NewPromise[int]()
	f := p.Future()
	select {
	case <-f.done:
		t.Error("future complete before promise fulfilled")
	default:
	}
	if err := p.Success(7); err != nil {
		t.Fatal(err)
	}
	v, err := f.Await()
	if err != nil || v != 7 {
		t.Errorf("Await = (%v, %v), want (7, nil)", v, err)
	}
}

func TestPromiseFailure(t *testing.T) {
	p := NewPromise[string]()
	boom := errors.New("boom")
	if err := p.Failure(boom); err != nil {
		t.Fatal(err)
	}
	_, err := p.Future().Await()
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestDoubleCompletion(t *testing.T) {
	p := NewPromise[int]()
	if err := p.Success(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Success(2); !errors.Is(err, ErrAlreadyCompleted) {
		t.Errorf("second Success err = %v", err)
	}
	if err := p.Failure(errors.New("x")); !errors.Is(err, ErrAlreadyCompleted) {
		t.Errorf("Failure after Success err = %v", err)
	}
	if v, _ := p.Future().Await(); v != 1 {
		t.Errorf("value = %d, want first completion 1", v)
	}
}

func TestTrySuccessRace(t *testing.T) {
	p := NewPromise[int]()
	var wins atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if p.Success(i) == nil {
				wins.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if wins.Load() != 1 {
		t.Errorf("winners = %d, want exactly 1", wins.Load())
	}
}

func TestOnCompleteBeforeAndAfter(t *testing.T) {
	p := NewPromise[int]()
	var order []string
	var mu sync.Mutex
	record := func(s string) func(int, error) {
		return func(int, error) {
			mu.Lock()
			order = append(order, s)
			mu.Unlock()
		}
	}
	p.Future().OnComplete(record("before"))
	_ = p.Success(1)
	p.Future().OnComplete(record("after"))
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "before" || order[1] != "after" {
		t.Errorf("order = %v", order)
	}
}

func TestCompletedAndFailed(t *testing.T) {
	v, err := Completed(3).Await()
	if v != 3 || err != nil {
		t.Errorf("Completed = (%v, %v)", v, err)
	}
	boom := errors.New("boom")
	p := NewPromise[int]()
	_ = p.Failure(boom)
	if _, err := p.Future().Await(); !errors.Is(err, boom) {
		t.Errorf("failed future err = %v", err)
	}
}

func TestAsync(t *testing.T) {
	f := Async(func() (int, error) { return 5, nil })
	if v, err := f.Await(); v != 5 || err != nil {
		t.Errorf("Async = (%v, %v)", v, err)
	}
	boom := errors.New("boom")
	f2 := Async(func() (int, error) { return 0, boom })
	if _, err := f2.Await(); !errors.Is(err, boom) {
		t.Errorf("Async err = %v", err)
	}
}

// A panicking body runs on a bare goroutine that nothing above recovers:
// it must fail the future, not kill the process.
func TestAsyncPanicFailsFuture(t *testing.T) {
	_, err := Async(func() (int, error) { panic("fitness exploded") }).Await()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "fitness exploded" {
		t.Fatalf("Async err = %v, want PanicError(fitness exploded)", err)
	}
	if len(pe.Stack) == 0 {
		t.Error("PanicError carries no stack")
	}
	boom := errors.New("boom")
	_, err = Async(func() (int, error) { panic(boom) }).Await()
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want it to unwrap to the panicked error", err)
	}
	// Continuations see the failure like any other.
	g := Map(Async(func() (int, error) { panic("again") }), func(v int) int { return v + 1 })
	if _, err := g.Await(); !errors.As(err, &pe) {
		t.Errorf("Map over a panicked future: err = %v", err)
	}
}

// A panicking mapper runs on whichever goroutine completed the upstream
// promise — here Async's bare goroutine — so it must fail the derived
// future, not kill the process.
func TestMapPanicFailsFuture(t *testing.T) {
	up := Async(func() (int, error) {
		time.Sleep(time.Millisecond) // complete after Map has registered
		return 1, nil
	})
	_, err := Map(up, func(int) int { panic("stage exploded") }).Await()
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "stage exploded" || len(pe.Stack) == 0 {
		t.Fatalf("Map err = %v, want PanicError(stage exploded) with a stack", err)
	}
	if v, err := up.Await(); v != 1 || err != nil {
		t.Errorf("upstream = (%d, %v), want (1, nil): the mapper's panic is its own", v, err)
	}
}

func TestMapChain(t *testing.T) {
	f := Async(func() (int, error) { return 10, nil })
	g := Map(f, func(v int) int { return v * 2 })
	h := Map(g, func(v int) string {
		if v == 20 {
			return "twenty"
		}
		return "wrong"
	})
	v, err := h.Await()
	if err != nil || v != "twenty" {
		t.Errorf("chain = (%v, %v)", v, err)
	}
}

func TestMapErrorPropagation(t *testing.T) {
	boom := errors.New("boom")
	f := Async(func() (int, error) { return 0, boom })
	calls := 0
	g := Map(f, func(v int) int { calls++; return v })
	if _, err := g.Await(); !errors.Is(err, boom) {
		t.Errorf("err = %v", err)
	}
	if calls != 0 {
		t.Error("Map function ran despite failure")
	}
}

func TestSequence(t *testing.T) {
	fs := []*Future[int]{Completed(1), Async(func() (int, error) { return 2, nil }), Completed(3)}
	vs, err := Sequence(fs).Await()
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 3 || vs[0] != 1 || vs[1] != 2 || vs[2] != 3 {
		t.Errorf("Sequence = %v", vs)
	}
	// Empty sequence completes immediately.
	if vs, err := Sequence[int](nil).Await(); err != nil || vs != nil {
		t.Errorf("empty Sequence = (%v, %v)", vs, err)
	}
	// Failure propagates.
	boom := errors.New("boom")
	bad := []*Future[int]{Completed(1), Async(func() (int, error) { return 0, boom })}
	if _, err := Sequence(bad).Await(); !errors.Is(err, boom) {
		t.Errorf("Sequence err = %v", err)
	}
}

func TestConcurrentCallbacksAllRun(t *testing.T) {
	p := NewPromise[int]()
	var count atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.Future().OnComplete(func(int, error) { count.Add(1) })
		}()
	}
	// Complete concurrently with registrations.
	go func() { _ = p.Success(9) }()
	wg.Wait()
	// All registrations either ran synchronously or were enqueued; wait
	// briefly for any in-flight callback executions.
	deadline := time.Now().Add(2 * time.Second)
	for count.Load() != 50 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if count.Load() != 50 {
		t.Errorf("callbacks run = %d, want 50", count.Load())
	}
}
