package futures

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"renaissance/internal/forkjoin"
)

func TestPromiseSuccess(t *testing.T) {
	p := NewPromise[int]()
	f := p.Future()
	ran := false
	f.OnComplete(func(int, error) { ran = true })
	if ran {
		t.Error("future complete before promise fulfilled")
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

	// A failure that wins keeps its error against a later success, for a
	// waiter that parked before either.
	q := NewPromise[int]()
	got := make(chan error, 1)
	go func() {
		_, err := q.Future().Await()
		got <- err
	}()
	boom := errors.New("boom")
	if err := q.Failure(boom); err != nil {
		t.Fatal(err)
	}
	if err := q.Success(2); !errors.Is(err, ErrAlreadyCompleted) {
		t.Errorf("Success after Failure err = %v", err)
	}
	if err := <-got; !errors.Is(err, boom) {
		t.Errorf("waiter err = %v, want the first completion boom", err)
	}
	if v, err := q.Future().Await(); v != 0 || !errors.Is(err, boom) {
		t.Errorf("Await = (%d, %v), want (0, boom)", v, err)
	}
}

// Awaiters racing the completion: an Await that finds the future pending
// makes the channel the completer closes, so every waiter, early or late,
// must wake with the winning outcome.
func TestAwaitRacingCompletion(t *testing.T) {
	boom := errors.New("boom")
	for round := 0; round < 200; round++ {
		p := NewPromise[int]()
		start := make(chan struct{})
		const waiters = 8
		type outcome struct {
			v   int
			err error
		}
		seen := make(chan outcome, waiters)
		var won atomic.Pointer[outcome]
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				v, err := p.Future().Await()
				seen <- outcome{v, err}
			}()
		}
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if i == 0 {
					if p.Success(round) == nil {
						won.Store(&outcome{v: round})
					}
				} else if p.Failure(boom) == nil {
					won.Store(&outcome{err: boom})
				}
			}()
		}
		close(start)
		wg.Wait()
		close(seen)
		w := won.Load()
		if w == nil {
			t.Fatalf("round %d: no completer won", round)
		}
		for o := range seen {
			if o != *w {
				t.Fatalf("round %d: waiter saw %+v, winner was %+v", round, o, *w)
			}
		}
	}
}

// Continuations registered while the future is pending run in
// registration order, across the inline first slot and the rest.
func TestCallbacksRunInRegistrationOrder(t *testing.T) {
	p := NewPromise[int]()
	var order []int
	for i := 0; i < 5; i++ {
		p.Future().OnComplete(func(int, error) { order = append(order, i) })
	}
	_ = p.Success(1)
	p.Future().OnComplete(func(int, error) { order = append(order, 5) })
	if len(order) != 6 {
		t.Fatalf("order = %v, want 6 callbacks", order)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("order = %v, want 0..5", order)
		}
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

// A panicking body runs on an executor worker, or on whichever goroutine
// Awaits a pending future, and nothing above the body recovers there: it
// must fail the future, not kill the process.
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
// promise — here the one that ran the Async body — so it must fail the
// derived future, not kill the process.
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

// Sequence fails on the first error without waiting for the inputs still
// pending.
func TestSequenceFailsFast(t *testing.T) {
	pending := NewPromise[int]() // never completed
	failed := NewPromise[int]()
	boom := errors.New("boom")
	seq := Sequence([]*Future[int]{Completed(1), pending.Future(), failed.Future()})
	_ = failed.Failure(boom)
	got := make(chan error, 1)
	go func() {
		_, err := seq.Await()
		got <- err
	}()
	select {
	case err := <-got:
		if !errors.Is(err, boom) {
			t.Errorf("Sequence err = %v, want boom", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sequence waited for a pending input after another failed")
	}
}

func TestAllocationGates(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's bookkeeping allocates")
	}
	if n := testing.AllocsPerRun(100, func() {
		p := NewPromise[int]()
		_ = p.Success(1)
		if v, err := p.Future().Await(); v != 1 || err != nil {
			t.Fatalf("Await = (%d, %v)", v, err)
		}
	}); n > 1 {
		t.Errorf("NewPromise+Success+Await allocates %v, want <= 1", n)
	}

	// Async queues its promise record itself, and Await parks on the
	// future's WaitGroup: the promise is the only object, whoever runs the
	// body and however the Await finds the future.
	if n := testing.AllocsPerRun(1000, func() {
		if v, err := Async(func() (int, error) { return 1, nil }).Await(); v != 1 || err != nil {
			t.Fatalf("Async.Await = (%d, %v)", v, err)
		}
	}); n > 1 {
		t.Errorf("Async+Await allocates %v, want <= 1", n)
	}

	// Sequence over pending inputs: one continuation per input plus a
	// constant (its promise, shared state and result slice).
	const width, runs = 64, 20
	ps := make([][]*Promise[int], runs+1)
	fs := make([][]*Future[int], runs+1)
	for r := range ps {
		for i := 0; i < width; i++ {
			p := NewPromise[int]()
			ps[r] = append(ps[r], p)
			fs[r] = append(fs[r], p.Future())
		}
	}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		seq := Sequence(fs[next])
		for i, p := range ps[next] {
			_ = p.Success(i)
		}
		next++
		if vs, err := seq.Await(); err != nil || len(vs) != width {
			t.Fatalf("Sequence = (%d values, %v)", len(vs), err)
		}
	})
	if n > width+4 {
		t.Errorf("Sequence of %d allocates %v, want <= %d", width, n, width+4)
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

// within runs fn on a goroutine of its own and fails the test if it has not
// returned after five seconds.
func within(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not complete within 5 s", what)
	}
}

// A chain of Async bodies each Awaiting the next is deeper than the
// executor is wide: every worker ends up inside an Await, and the chain
// completes only because those Awaits run the queued bodies themselves.
func TestExecutorNestedAwaitChain(t *testing.T) {
	const depth = 64
	var link func(d int) (int, error)
	link = func(d int) (int, error) {
		if d == 0 {
			return 0, nil
		}
		v, err := Async(func() (int, error) { return link(d - 1) }).Await()
		return v + 1, err
	}
	within(t, "a 64-deep Await chain", func() {
		if v, err := Async(func() (int, error) { return link(depth) }).Await(); v != depth || err != nil {
			t.Errorf("chain = (%d, %v), want (%d, nil)", v, err, depth)
		}
	})
}

// workers is forkjoin.Shared()'s width: GOMAXPROCS as the process starts.
var workers = runtime.GOMAXPROCS(0)

// blockWorkers parks every Shared() worker in an Async body until the
// returned release is called, which also checks the blocked bodies' results.
func blockWorkers(t *testing.T) (release func()) {
	started := make(chan struct{}, workers)
	unblock := make(chan struct{})
	blocked := make([]*Future[int], workers)
	for i := range blocked {
		blocked[i] = Async(func() (int, error) {
			started <- struct{}{}
			<-unblock
			return i, nil
		})
	}
	within(t, "every worker taking a blocking body", func() {
		for range workers {
			<-started
		}
	})
	return func() {
		close(unblock)
		within(t, "the released bodies", func() {
			for i, f := range blocked {
				if v, err := f.Await(); v != i || err != nil {
					t.Errorf("blocked body %d = (%d, %v)", i, v, err)
				}
			}
		})
	}
}

// With every worker blocked in a body, outside any Await, a new Async
// still completes: its Await runs the body on the caller's goroutine. So
// do 10,000 of them through one Await, on no goroutine of their own.
func TestExecutorAwaitHelpsWhenWorkersBlocked(t *testing.T) {
	defer blockWorkers(t)()
	within(t, "an Await with every worker blocked", func() {
		if v, err := Async(func() (int, error) { return 7, nil }).Await(); v != 7 || err != nil {
			t.Errorf("Async = (%d, %v), want (7, nil)", v, err)
		}
	})
	within(t, "10,000 Asyncs through one Await", func() {
		before := runtime.NumGoroutine()
		fs := make([]*Future[int], 10000)
		for i := range fs {
			fs[i] = Async(func() (int, error) { return i, nil })
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("goroutines rose from %d to %d while queueing bodies", before, n)
		}
		vs, err := Sequence(fs).Await()
		if err != nil || len(vs) != len(fs) {
			t.Errorf("Sequence = (%d values, %v)", len(vs), err)
		}
		for i, v := range vs {
			if v != i {
				t.Errorf("future %d = %d", i, v)
				break
			}
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("goroutines rose from %d to %d while running bodies", before, n)
		}
	})
}

// An Await off the pool runs whatever Shared() has injected, a fork/join
// root among it: with every worker blocked, an Invoke's root task runs on
// the Awaiting goroutine, its forks inline, and returns the right result.
func TestExecutorAwaitRunsInjectedForkJoinRoot(t *testing.T) {
	defer blockWorkers(t)()
	var fib func(n int) forkjoin.Fn
	fib = func(n int) forkjoin.Fn {
		return func(w *forkjoin.Worker) any {
			if n < 2 {
				return n
			}
			left := w.Fork(fib(n - 1))
			return fib(n-2)(w).(int) + w.Join(left).(int)
		}
	}
	got := make(chan any, 1)
	go func() { got <- forkjoin.Shared().Invoke(fib(15)) }()
	within(t, "an injected Invoke root run by an Await", func() {
		for {
			select {
			case v := <-got:
				if v != 610 {
					t.Errorf("fib(15) = %v, want 610", v)
				}
				return
			default:
			}
			// The root is ahead of this body in the queue, once injected.
			Async(func() (int, error) { return 0, nil }).Await()
		}
	})
}

// Panicking bodies fail their futures and leave the workers running:
// bodies queued afterwards still complete without any Await to run them.
func TestExecutorRunsOnAfterPanic(t *testing.T) {
	failed := make(chan error, 2*workers)
	for range 2 * workers {
		Async(func() (int, error) { panic("body exploded") }).OnComplete(func(_ int, err error) { failed <- err })
	}
	within(t, "the panicking bodies", func() {
		for range 2 * workers {
			var pe *PanicError
			if err := <-failed; !errors.As(err, &pe) {
				t.Errorf("panicking body err = %v, want a PanicError", err)
			}
		}
	})
	ran := make(chan int, 2*workers)
	for i := range 2 * workers {
		Async(func() (int, error) {
			ran <- i
			return i, nil
		})
	}
	within(t, "bodies queued after the panics", func() {
		for range 2 * workers {
			<-ran
		}
	})
}
