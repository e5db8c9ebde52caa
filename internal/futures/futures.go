// Package futures implements composable futures and promises in the style
// of Twitter Util / Scala futures (SIP-14), used by the future-genetic and
// finagle-chirper benchmarks (Table 1: "task-parallel, contention" and
// "network stack, futures, atomics"). The first completer wins under the
// future's mutex; continuations registered with Map/OnComplete are closure
// dispatches, which is what the paper's idynamic metric estimates.
//
// Async bodies run on forkjoin.Shared(), as Scala futures and Jenetics run
// theirs on a ForkJoinPool ExecutionContext: the promise record itself is
// the pool's inject-queue element, so queueing a body allocates nothing
// beyond the promise. An Await on a pending future runs the pool's
// injected work on its own goroutine until its future completes or the
// queue is empty, so a body may wait through Await on a future it made
// without starving the pool. A body that Awaits a future made elsewhere
// can, while it helps, pick up a body that Awaits it, and deadlock; a
// body that blocks on something only a later Async body provides, other
// than through Await, may wait for a worker to come free.
package futures

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

	"renaissance/internal/forkjoin"
	"renaissance/internal/metrics"
)

// ErrAlreadyCompleted is returned when a promise is completed twice.
var ErrAlreadyCompleted = errors.New("futures: promise already completed")

// PanicError is the failure of a future whose Async body panicked: the
// recovered value with the panicking goroutine's stack attached.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("futures: async body panicked: %v", e.Value)
}

// Unwrap exposes a panic value that was itself an error, so errors.Is/As
// see through the wrapper.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Future is a read handle on an eventually available value of type T.
// Everything below mu is guarded by it until completed is set; after that
// value and err never change.
type Future[T any] struct {
	mu sync.Mutex
	// parked is what Awaits that find the future pending block on, which
	// allocates nothing: the first of them adds one and sets waiting, and
	// completion marks it done.
	parked    sync.WaitGroup
	value     T
	err       error
	completed bool
	waiting   bool
	// first is the first pending continuation, held inline because most
	// futures get exactly one; later ones go to *rest, in order, which only
	// a future with several is given.
	first func(T, error)
	rest  *[]func(T, error)
}

// Promise is the write handle that completes its future exactly once. The
// future lives inside it, so a promise/future pair is one allocation.
type Promise[T any] struct {
	f Future[T]
}

// NewPromise creates an incomplete promise/future pair.
func NewPromise[T any]() *Promise[T] {
	metrics.IncObject()
	return &Promise[T]{}
}

// Future returns the promise's future.
func (p *Promise[T]) Future() *Future[T] { return &p.f }

// Success completes the future with a value. It returns
// ErrAlreadyCompleted if the promise was completed before.
func (p *Promise[T]) Success(v T) error { return p.complete(v, nil) }

// Failure completes the future with an error.
func (p *Promise[T]) Failure(err error) error {
	var zero T
	return p.complete(zero, err)
}

// complete settles the future; the first completer to take the mutex wins.
func (p *Promise[T]) complete(v T, err error) error {
	f := &p.f
	f.mu.Lock()
	if f.completed {
		f.mu.Unlock()
		return ErrAlreadyCompleted
	}
	f.value, f.err, f.completed = v, err, true
	waiting, first, rest := f.waiting, f.first, f.rest
	f.first, f.rest = nil, nil
	f.mu.Unlock()
	metrics.IncSynch()
	metrics.IncAtomic() // publication of the completed state
	if waiting {
		f.parked.Done()
	}
	metrics.IncNotify()
	if first != nil {
		metrics.IncIDynamic()
		first(v, err)
	}
	if rest != nil {
		metrics.AddIDynamic(int64(len(*rest)))
		for _, cb := range *rest {
			cb(v, err)
		}
	}
	return nil
}

// OnComplete registers a continuation invoked with the result; if the
// future is already complete the continuation runs synchronously.
// Continuations registered before completion run in registration order.
func (f *Future[T]) OnComplete(cb func(T, error)) {
	metrics.IncSynch()
	f.mu.Lock()
	if !f.completed {
		if f.first == nil {
			f.first = cb
		} else {
			if f.rest == nil {
				f.rest = new([]func(T, error))
			}
			*f.rest = append(*f.rest, cb)
		}
		f.mu.Unlock()
		return
	}
	v, err := f.value, f.err
	f.mu.Unlock()
	metrics.IncIDynamic()
	cb(v, err)
}

// Await blocks until the future completes and returns its result. While
// the future is pending it runs forkjoin.Shared()'s injected work (Async
// bodies among it) on the calling goroutine, the way a fork/join Join
// helps; once that queue is empty it parks.
func (f *Future[T]) Await() (T, error) {
	metrics.IncPark()
	for !f.isCompleted() && forkjoin.Shared().Help() {
	}
	f.mu.Lock()
	if f.completed {
		f.mu.Unlock()
		return f.value, f.err
	}
	if !f.waiting {
		f.waiting = true
		f.parked.Add(1)
	}
	f.mu.Unlock()
	f.parked.Wait()
	return f.value, f.err
}

func (f *Future[T]) isCompleted() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.completed
}

// Completed returns a future that is already successfully completed.
func Completed[T any](v T) *Future[T] {
	p := NewPromise[T]()
	_ = p.Success(v)
	return &p.f
}

// Async queues fn on forkjoin.Shared() and returns its future; fn runs on
// a pool worker or on a goroutine that Awaits a pending future. A body
// that waits on another future must do so through Await (see the package
// doc). A panicking fn fails the future with a *PanicError instead of
// killing the process: neither of those goroutines is the harness's
// iteration goroutine, so nothing above the body would recover.
func Async[T any](fn func() (T, error)) *Future[T] {
	metrics.IncObject()
	t := &asyncTask[T]{fn: fn}
	forkjoin.Shared().Inject(t)
	return &t.f
}

// asyncTask is an Async future's promise record and its body: the pool's
// inject-queue element, so queueing a body allocates nothing beyond the
// promise.
type asyncTask[T any] struct {
	Promise[T]
	fn func() (T, error)
}

// Run runs the body and completes the future; it needs no worker.
func (t *asyncTask[T]) Run(*forkjoin.Worker) {
	metrics.IncIDynamic()
	v, err := protect(t.fn)
	if err != nil {
		_ = t.Failure(err)
		return
	}
	_ = t.Success(v)
}

// protect calls fn, converting a panic into a *PanicError.
func protect[T any](fn func() (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Map returns a future holding fn applied to f's value; errors pass
// through. fn runs on whichever goroutine completes f, so a panicking fn
// fails the derived future with a *PanicError instead of unwinding into
// the completer.
func Map[T, U any](f *Future[T], fn func(T) U) *Future[U] {
	p := NewPromise[U]()
	f.OnComplete(func(v T, err error) {
		if err != nil {
			_ = p.Failure(err)
			return
		}
		metrics.IncIDynamic()
		u, err := protect(func() (U, error) { return fn(v), nil })
		if err != nil {
			_ = p.Failure(err)
			return
		}
		_ = p.Success(u)
	})
	return &p.f
}

// Sequence converts a slice of futures into a future of the slice of
// results, failing fast on the first error.
func Sequence[T any](fs []*Future[T]) *Future[[]T] {
	p := NewPromise[[]T]()
	n := len(fs)
	if n == 0 {
		_ = p.Success(nil)
		return &p.f
	}
	metrics.IncArray()
	s := &seqState[T]{p: p, results: make([]T, n), remaining: n}
	for i, f := range fs {
		f.OnComplete(func(v T, err error) { s.set(i, v, err) })
	}
	return &p.f
}

// seqState is what Sequence's per-input continuations share, so each of
// them captures one pointer and its index.
type seqState[T any] struct {
	p         *Promise[[]T]
	mu        sync.Mutex
	results   []T
	remaining int
}

// set records input i's outcome: the first error fails the sequence, and
// the last value completes it.
func (s *seqState[T]) set(i int, v T, err error) {
	if err != nil {
		_ = s.p.Failure(err)
		return
	}
	metrics.IncSynch()
	s.mu.Lock()
	s.results[i] = v
	s.remaining--
	last := s.remaining == 0
	s.mu.Unlock()
	if last {
		_ = s.p.Success(s.results)
	}
}
