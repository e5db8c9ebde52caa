// Package futures implements composable futures and promises in the style
// of Twitter Util / Scala futures (SIP-14), used by the future-genetic and
// finagle-chirper benchmarks (Table 1: "task-parallel, contention" and
// "network stack, futures, atomics"). Completion uses an atomic state
// transition; continuations registered with Map/OnComplete are closure
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
type Future[T any] struct {
	mu        sync.Mutex
	done      chan struct{}
	value     T
	err       error
	completed bool
	callbacks []func(T, error)
}

// Promise is the write handle that completes its future exactly once.
type Promise[T any] struct {
	f    *Future[T]
	once sync.Once
}

// NewPromise creates an incomplete promise/future pair.
func NewPromise[T any]() *Promise[T] {
	metrics.IncObject()
	return &Promise[T]{f: &Future[T]{done: make(chan struct{})}}
}

// Future returns the promise's future.
func (p *Promise[T]) Future() *Future[T] { return p.f }

// Success completes the future with a value. It returns
// ErrAlreadyCompleted if the promise was completed before.
func (p *Promise[T]) Success(v T) error { return p.complete(v, nil) }

// Failure completes the future with an error.
func (p *Promise[T]) Failure(err error) error {
	var zero T
	return p.complete(zero, err)
}

func (p *Promise[T]) complete(v T, err error) error {
	won := false
	p.once.Do(func() {
		won = true
		f := p.f
		metrics.IncSynch()
		f.mu.Lock()
		f.value, f.err, f.completed = v, err, true
		cbs := f.callbacks
		f.callbacks = nil
		f.mu.Unlock()
		metrics.IncAtomic() // publication of the completed state
		close(f.done)
		metrics.IncNotify()
		for _, cb := range cbs {
			metrics.IncIDynamic()
			cb(v, err)
		}
	})
	if !won {
		return ErrAlreadyCompleted
	}
	return nil
}

// OnComplete registers a continuation invoked with the result; if the
// future is already complete the continuation runs synchronously.
func (f *Future[T]) OnComplete(cb func(T, error)) {
	metrics.IncSynch()
	f.mu.Lock()
	if !f.completed {
		f.callbacks = append(f.callbacks, cb)
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
	<-f.done
	return f.value, f.err
}

// Completed returns a future that is already successfully completed.
func Completed[T any](v T) *Future[T] {
	p := NewPromise[T]()
	_ = p.Success(v)
	return p.f
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
	return p.f
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
	return p.f
}

// Sequence converts a slice of futures into a future of the slice of
// results, failing fast on the first error.
func Sequence[T any](fs []*Future[T]) *Future[[]T] {
	p := NewPromise[[]T]()
	n := len(fs)
	if n == 0 {
		_ = p.Success(nil)
		return p.f
	}
	metrics.IncArray()
	results := make([]T, n)
	var mu sync.Mutex
	remaining := n
	for i, f := range fs {
		i, f := i, f
		f.OnComplete(func(v T, err error) {
			if err != nil {
				_ = p.Failure(err)
				return
			}
			metrics.IncSynch()
			mu.Lock()
			results[i] = v
			remaining--
			last := remaining == 0
			mu.Unlock()
			if last {
				_ = p.Success(results)
			}
		})
	}
	return p.f
}
