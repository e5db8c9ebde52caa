// Package futures implements composable futures and promises in the style
// of Twitter Util / Scala futures (SIP-14), used by the future-genetic and
// finagle-chirper benchmarks (Table 1: "task-parallel, contention" and
// "network stack, futures, atomics"). The first completer wins under the
// future's mutex; continuations registered with Map/OnComplete are closure
// dispatches, which is what the paper's idynamic metric estimates.
package futures

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"

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
	// done is made by the first Await that finds the future pending and
	// closed on completion; a future nobody blocks on never has one.
	done      chan struct{}
	value     T
	err       error
	completed bool
	// first is the first pending continuation, held inline because most
	// futures get exactly one; later ones go to rest, in order.
	first func(T, error)
	rest  []func(T, error)
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
	done, first, rest := f.done, f.first, f.rest
	f.first, f.rest = nil, nil
	f.mu.Unlock()
	metrics.IncSynch()
	metrics.IncAtomic() // publication of the completed state
	if done != nil {
		close(done)
	}
	metrics.IncNotify()
	if first != nil {
		metrics.IncIDynamic()
		first(v, err)
	}
	for _, cb := range rest {
		metrics.IncIDynamic()
		cb(v, err)
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
			f.rest = append(f.rest, cb)
		}
		f.mu.Unlock()
		return
	}
	v, err := f.value, f.err
	f.mu.Unlock()
	metrics.IncIDynamic()
	cb(v, err)
}

// Await blocks until the future completes and returns its result.
func (f *Future[T]) Await() (T, error) {
	metrics.IncPark()
	f.mu.Lock()
	if f.completed {
		f.mu.Unlock()
		return f.value, f.err
	}
	if f.done == nil {
		f.done = make(chan struct{})
	}
	done := f.done
	f.mu.Unlock()
	<-done
	return f.value, f.err
}

// Completed returns a future that is already successfully completed.
func Completed[T any](v T) *Future[T] {
	p := NewPromise[T]()
	_ = p.Success(v)
	return &p.f
}

// Async runs fn on a new goroutine and returns its future. A panicking fn
// fails the future with a *PanicError instead of killing the process: the
// goroutine is not the harness's iteration goroutine, so nothing above it
// would recover.
func Async[T any](fn func() (T, error)) *Future[T] {
	p := NewPromise[T]()
	go func() {
		metrics.IncIDynamic()
		v, err := protect(fn)
		if err != nil {
			_ = p.Failure(err)
			return
		}
		_ = p.Success(v)
	}()
	return &p.f
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
