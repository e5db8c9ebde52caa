package forkjoin

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"renaissance/internal/metrics"
)

func TestForEPanicReturnsTaskError(t *testing.T) {
	p := NewPool(4)

	err := p.ForRetryE(1000, 1, 0, 0, func(lo, hi, _ int) {
		if lo == 500 {
			panic("chunk failure")
		}
	})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("ForRetryE error = %v, want *TaskError", err)
	}
	if te.Index != 500 || te.Value != "chunk failure" {
		t.Errorf("TaskError = {Index:%d Value:%v}, want {500 chunk failure}", te.Index, te.Value)
	}
	if len(te.Stack) == 0 {
		t.Error("TaskError carries no stack")
	}
}

func TestForEPanicSingleChunkFastPath(t *testing.T) {
	// n <= grain takes the no-barrier fast path; the failure must still
	// surface as a TaskError, not escape as a panic.
	p := NewPool(2)

	err := p.ForRetryE(3, 10, 0, 0, func(lo, hi, _ int) { panic("tiny") })
	var te *TaskError
	if !errors.As(err, &te) || te.Value != "tiny" {
		t.Fatalf("single-chunk ForRetryE error = %v, want TaskError(tiny)", err)
	}
}

func TestForPanicRepanicsAtJoin(t *testing.T) {
	// For keeps the fork/join exception-propagation contract:
	// the TaskError is re-panicked at the join point.
	defer func() {
		p := recover()
		te, ok := p.(*TaskError)
		if !ok {
			t.Fatalf("recovered %v (%T), want *TaskError", p, p)
		}
		if te.Value != "legacy" {
			t.Errorf("TaskError.Value = %v, want legacy", te.Value)
		}
	}()
	For(100, 1, func(lo, hi int) {
		if lo == 50 {
			panic("legacy")
		}
	})
	t.Fatal("For returned normally after a chunk panic")
}

func TestForEFirstFailureWinsAndCancels(t *testing.T) {
	// Exactly one failure is reported; sibling chunks stop being claimed
	// after cancellation, and the barrier still releases.
	p := NewPool(4)

	var executed atomic.Int64
	err := p.ForRetryE(10000, 1, 0, 0, func(lo, hi, _ int) {
		executed.Add(1)
		panic(lo) // every chunk fails; first one in wins
	})
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("error = %v, want *TaskError", err)
	}
	if te.Value.(int) != te.Index {
		t.Errorf("winner Index %d != Value %v", te.Index, te.Value)
	}
	// Cancellation is claim-granular: at most one in-flight chunk per
	// executor (workers + caller) runs after the first failure.
	if n := executed.Load(); n > int64(len(p.workers)+1) {
		t.Errorf("%d chunks executed after universal failure, want <= %d",
			n, len(p.workers)+1)
	}
}

func TestInvokePanicRepanicsTaskError(t *testing.T) {
	p := NewPool(2)

	defer func() {
		te, ok := recover().(*TaskError)
		if !ok || te.Value != "task" || te.Index != -1 {
			t.Fatalf("recovered %v, want TaskError{Index:-1 Value:task}", te)
		}
	}()
	p.Invoke(func(w *Worker) any { panic("task") })
	t.Fatal("Invoke returned normally after a task panic")
}

func TestSubmitPanicSurfacesViaErr(t *testing.T) {
	p := NewPool(2)

	task := submit(p, func(w *Worker) any { panic("submitted") })
	deadline := time.Now().Add(5 * time.Second)
	for task.state.Load() == taskPending {
		if time.Now().After(deadline) {
			t.Fatal("panicked task never completed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	te, ok := task.result.(*TaskError)
	if task.state.Load() != taskFailed || !ok || te.Value != "submitted" || te.Index != -1 {
		t.Fatalf("task state %d, result %v, want failed with TaskError{Index:-1 Value:submitted}", task.state.Load(), task.result)
	}
}

func TestJoinRepanicsNestedTaskIdentity(t *testing.T) {
	// A nested fork whose panic crosses two joins keeps the innermost
	// TaskError identity instead of being re-wrapped per level.
	p := NewPool(4)

	var inner *TaskError
	got := p.Invoke(func(w *Worker) any {
		child := w.Fork(func(w *Worker) any { panic("deep") })
		defer func() {
			te, ok := recover().(*TaskError)
			if ok {
				inner = te
			}
			// Swallow: the outer task completes normally after observing it.
		}()
		w.Join(child)
		return nil
	})
	_ = got
	if inner == nil || inner.Value != "deep" {
		t.Fatalf("inner join recovered %+v, want TaskError(deep)", inner)
	}
}

func TestPanickingPartitionNestedForNoDeadlock(t *testing.T) {
	// Regression for the fault-domain contract on the shared pool: a
	// partition task that panics while sibling partitions run nested Fors
	// (the wide-RDD shuffle shape) must neither wedge the outer barrier nor
	// poison the pool for later jobs. Runs repeatedly to shake worker/
	// caller interleavings; `make stress` picks this up via the Panic
	// pattern.
	for round := 0; round < 20; round++ {
		var nestedDone atomic.Int64
		err := Shared().ForRetryE(8, 1, 0, 0, func(lo, hi, _ int) {
			if lo == 3 {
				panic("partition down")
			}
			Shared().ForRetryE(256, 0, 0, 0, func(lo, hi, _ int) { // nested parallel-for, caller-runs
				for i := lo; i < hi; i++ {
					nestedDone.Add(1)
				}
			})
		})
		var te *TaskError
		if !errors.As(err, &te) || te.Value != "partition down" {
			t.Fatalf("round %d: err = %v, want TaskError(partition down)", round, err)
		}
	}
	// The shared pool must still run clean jobs at full coverage.
	var sum atomic.Int64
	if err := Shared().ForRetryE(1000, 0, 0, 0, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			sum.Add(int64(i))
		}
	}); err != nil {
		t.Fatalf("clean ForRetryE after fault rounds: %v", err)
	}
	if sum.Load() != 499500 {
		t.Errorf("post-fault coverage sum = %d, want 499500", sum.Load())
	}

	// A retrying job nested inside a chunk while every worker is blocked
	// (siblings parked on a mutex the nesting chunk holds)
	// still completes — caller-runs claims and retries on the caller alone.
	p := NewPool(2)
	release := make(chan struct{})
	var blocked atomic.Int32
	for i := 0; i < len(p.workers); i++ {
		submit(p, func(*Worker) any { blocked.Add(1); <-release; return nil })
	}
	for blocked.Load() < int32(len(p.workers)) {
		time.Sleep(100 * time.Microsecond)
	}
	var nestedOK atomic.Int64
	err := p.ForRetryE(4, 1, 0, 0, func(lo, hi, _ int) {
		if err := p.ForRetryE(64, 1, 0, 2, func(lo, hi, attempt int) {
			if lo%3 == 0 && attempt == 0 {
				panic("first attempt down")
			}
			nestedOK.Add(1)
		}); err != nil {
			panic(err)
		}
	})
	close(release)
	if err != nil || nestedOK.Load() != 4*64 {
		t.Fatalf("nested retrying job with every worker blocked: err = %v, %d/%d indices succeeded",
			err, nestedOK.Load(), 4*64)
	}
}

func TestForRetryAttemptsUntilSuccess(t *testing.T) {
	// A chunk failing k <= budget times sees attempts 0..k in order, the
	// job returns nil, and every index runs to success exactly once.
	p := NewPool(4)

	const n, grain, budget = 256, 4, 3
	succeeded := make([]int, n)
	nextAttempt := make([]int, n/grain) // a chunk's attempts never overlap
	err := p.ForRetryE(n, grain, 0, budget, func(lo, hi, attempt int) {
		c := lo / grain
		if attempt != nextAttempt[c] {
			t.Errorf("chunk %d: attempt %d, want %d", c, attempt, nextAttempt[c])
		}
		nextAttempt[c]++
		if attempt < c%(budget+1) {
			panic("transient")
		}
		for i := lo; i < hi; i++ {
			succeeded[i]++
		}
	})
	if err != nil {
		t.Fatalf("ForRetryE within budget: %v", err)
	}
	for c, a := range nextAttempt {
		if want := c%(budget+1) + 1; a != want {
			t.Errorf("chunk %d ran %d attempts, want %d", c, a, want)
		}
	}
	for i, k := range succeeded {
		if k != 1 {
			t.Fatalf("index %d succeeded %d times, want exactly 1", i, k)
		}
	}
}

func TestForRetryBudgetExhaustionCancelsSiblings(t *testing.T) {
	// Chunk 0 fails every attempt; chunk 1 fails once, after chunk 0 has
	// started its last attempt. Exhaustion returns the *last* attempt's
	// TaskError, the sibling's retry loop stops at the cancellation token
	// instead of spending its own budget, and unclaimed chunks never run.
	p := NewPool(4)

	const budget = 3
	last := make(chan struct{})
	var siblingAttempts, unclaimedRan atomic.Int32
	err := p.ForRetryE(1000, 1, 2, budget, func(lo, hi, attempt int) {
		switch lo {
		case 0:
			if attempt == budget {
				close(last)
			}
			panic(attempt)
		case 1:
			siblingAttempts.Add(1)
			<-last
			time.Sleep(20 * time.Millisecond) // let chunk 0's failure cancel the job
			panic("sibling")
		default:
			unclaimedRan.Add(1)
		}
	})
	var te *TaskError
	if !errors.As(err, &te) || te.Index != 0 || te.Value != budget {
		t.Fatalf("err = %v, want chunk 0's attempt-%d TaskError", err, budget)
	}
	if n := siblingAttempts.Load(); n > 1 {
		t.Errorf("sibling ran %d attempts after the job failed, want its retry loop stopped", n)
	}
	if n := unclaimedRan.Load(); n != 0 {
		t.Errorf("%d unclaimed chunks ran after cancellation", n)
	}
}

func TestForRetryExhaustionNoGoroutineLeak(t *testing.T) {
	For(16, 1, func(lo, hi int) {}) // warm the shared pool up front
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		if err := Shared().ForRetryE(256, 1, 0, 1, func(lo, hi, attempt int) {
			if lo%5 == 0 {
				panic("leak probe")
			}
		}); err == nil {
			t.Fatal("persistently failing job returned nil")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// A multi-chunk job counts one object per helper it pushes onto the
// inject queue, min(par-1, chunks-1), on every run, however the helpers
// are scheduled (work-fresh compares the object column across runs).
func TestExecutorHelperObjectCount(t *testing.T) {
	p := NewPool(3)
	for _, c := range []struct {
		pool                *Pool
		n, grain, maxPar, h int
	}{
		{p, 100, 1, 0, 3}, // par 4, 100 chunks
		{p, 3, 1, 0, 2},   // 3 chunks: two helpers
		{p, 100, 1, 2, 1}, // maxPar 2
		{p, 100, 0, 0, 3}, // automatic grain
		{p, 5, 5, 0, 0},   // one chunk: no helpers
		{p, 100, 1, 1, 0}, // maxPar 1: the caller alone
		{Shared(), 64, 1, 0, min(len(Shared().workers), 63)},
	} {
		for run := 0; run < 20; run++ {
			before := metrics.Default.Snapshot().Get(metrics.Object)
			if err := c.pool.ForRetryE(c.n, c.grain, c.maxPar, 0, func(lo, hi, _ int) {}); err != nil {
				t.Fatal(err)
			}
			if got := metrics.Default.Snapshot().Get(metrics.Object) - before; got != int64(c.h) {
				t.Fatalf("n=%d grain=%d maxPar=%d run %d: object count rose by %d, want %d helpers",
					c.n, c.grain, c.maxPar, run, got, c.h)
			}
		}
	}
}

func TestForEPanicNoGoroutineLeak(t *testing.T) {
	// Helpers are pool tasks, not goroutines, so panicking jobs must leave
	// the goroutine count flat; a stuck barrier would strand the caller.
	For(16, 1, func(lo, hi int) {}) // warm the shared pool up front
	runtime.GC()
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		_ = Shared().ForRetryE(1024, 1, 0, 0, func(lo, hi, _ int) {
			if lo%7 == 0 {
				panic("leak probe")
			}
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
