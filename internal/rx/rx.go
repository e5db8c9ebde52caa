// Package rx implements push-based observable streams in the style of
// RxJava / Reactive Extensions, used by the rx-scrabble benchmark (Table 1:
// "streaming"). An Observable pushes elements to its subscriber; operators
// compose by wrapping the downstream observer. ObserveOn hands elements to
// a scheduler worker, which introduces the cross-thread queueing and
// parking that distinguish Rx pipelines from plain streams.
package rx

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"renaissance/internal/metrics"
	"renaissance/internal/mpsc"
)

// ErrEmpty is returned by blocking terminal operations on empty observables.
var ErrEmpty = errors.New("rx: empty observable")

// An Observer receives the observable protocol. OnNext returns false to
// cancel the subscription (the Rx "dispose" signal, folded into the push
// path for simplicity).
type Observer[T any] struct {
	OnNext     func(T) bool
	OnError    func(error)
	OnComplete func()
}

// Observable is a lazy push stream of T.
type Observable[T any] struct {
	subscribe func(Observer[T])
}

// Create builds an observable from a raw subscribe function. Implementors
// must honor OnNext's cancellation result and call OnComplete or OnError
// exactly once.
func Create[T any](subscribe func(Observer[T])) Observable[T] {
	return Observable[T]{subscribe: subscribe}
}

// FromSlice emits the slice's elements and completes.
func FromSlice[T any](xs []T) Observable[T] {
	return Create(func(o Observer[T]) {
		for _, x := range xs {
			if !o.OnNext(x) {
				return
			}
		}
		o.OnComplete()
	})
}

// Range emits the ints in [lo, hi).
func Range(lo, hi int) Observable[int] {
	return Create(func(o Observer[int]) {
		for i := lo; i < hi; i++ {
			if !o.OnNext(i) {
				return
			}
		}
		o.OnComplete()
	})
}

// Map transforms each element.
func Map[T, U any](src Observable[T], fn func(T) U) Observable[U] {
	return Create(func(o Observer[U]) {
		src.subscribe(Observer[T]{
			OnNext: func(x T) bool {
				metrics.IncIDynamic()
				return o.OnNext(fn(x))
			},
			OnError:    o.OnError,
			OnComplete: o.OnComplete,
		})
	})
}

// Filter keeps elements satisfying pred.
func Filter[T any](src Observable[T], pred func(T) bool) Observable[T] {
	return Create(func(o Observer[T]) {
		src.subscribe(Observer[T]{
			OnNext: func(x T) bool {
				metrics.IncIDynamic()
				if pred(x) {
					return o.OnNext(x)
				}
				return true
			},
			OnError:    o.OnError,
			OnComplete: o.OnComplete,
		})
	})
}

// Reduce emits the final fold of the source as a single element.
func Reduce[T, A any](src Observable[T], init A, fn func(A, T) A) Observable[A] {
	return Create(func(o Observer[A]) {
		acc := init
		src.subscribe(Observer[T]{
			OnNext: func(x T) bool {
				metrics.IncIDynamic()
				acc = fn(acc, x)
				return true
			},
			OnError: o.OnError,
			OnComplete: func() {
				if o.OnNext(acc) {
					o.OnComplete()
				}
			},
		})
	})
}

// Scheduler is a single worker goroutine executing queued actions in order,
// the rx "event loop" scheduler. Its run queue is the same Vyukov MPSC
// mailbox primitive that backs the actor runtime: enqueueing is one atomic
// swap (no channel lock, no backpressure stalls at a fixed channel
// capacity), and the worker drains batches wait-free, parking on a wake
// token when the queue is empty.
type Scheduler struct {
	q      mpsc.Queue[func()]
	parked atomic.Bool
	wake   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewScheduler starts a scheduler worker.
func NewScheduler() *Scheduler {
	s := &Scheduler{wake: make(chan struct{}, 1)}
	s.q.Init(mpsc.NewPool[func()]())
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *Scheduler) loop() {
	defer s.wg.Done()
	for {
		if fn, ok := s.q.Pop(); ok {
			fn()
			continue
		}
		if !s.q.Empty() {
			// A producer swapped in but has not linked yet.
			runtime.Gosched()
			continue
		}
		if s.closed.Load() {
			return // drained and closed
		}
		// Park protocol: advertise, re-verify, block. A producer either
		// sees parked and leaves a token or enqueued before the recheck.
		s.parked.Store(true)
		if !s.q.Empty() || s.closed.Load() {
			s.parked.Store(false)
			continue
		}
		metrics.IncPark()
		<-s.wake
		s.parked.Store(false)
	}
}

// Schedule enqueues an action. After Close the action is dropped (the
// previous channel-based scheduler panicked on this race).
func (s *Scheduler) Schedule(fn func()) {
	if s.closed.Load() {
		return
	}
	metrics.IncAtomic()
	s.q.Push(fn)
	if s.parked.Load() {
		metrics.IncNotify()
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// Close drains and stops the scheduler: actions already enqueued are still
// executed, in order, before Close returns.
func (s *Scheduler) Close() {
	if s.closed.Swap(true) {
		return
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	s.wg.Wait()
}

// ObserveOn delivers the source's signals on the scheduler's worker. The
// resulting observable does not support cancellation mid-stream (its
// OnNext result is ignored), matching the fire-and-forget delivery of an
// Rx event loop.
func ObserveOn[T any](src Observable[T], s *Scheduler) Observable[T] {
	return Create(func(o Observer[T]) {
		done := make(chan struct{})
		src.subscribe(Observer[T]{
			OnNext: func(x T) bool {
				s.Schedule(func() { o.OnNext(x) })
				return true
			},
			OnError: func(err error) {
				s.Schedule(func() {
					o.OnError(err)
					close(done)
				})
			},
			OnComplete: func() {
				s.Schedule(func() {
					o.OnComplete()
					close(done)
				})
			},
		})
		metrics.IncPark()
		<-done
	})
}

// BlockingFirst returns the first element.
func (src Observable[T]) BlockingFirst() (T, error) {
	var out T
	found := false
	var serr error
	src.subscribe(Observer[T]{
		OnNext: func(x T) bool {
			out, found = x, true
			return false
		},
		OnError:    func(e error) { serr = e },
		OnComplete: func() {},
	})
	if serr != nil {
		return out, serr
	}
	if !found {
		return out, ErrEmpty
	}
	return out, nil
}

// BlockingLast returns the final element.
func (src Observable[T]) BlockingLast() (T, error) {
	var out T
	found := false
	var serr error
	src.subscribe(Observer[T]{
		OnNext: func(x T) bool {
			out, found = x, true
			return true
		},
		OnError:    func(e error) { serr = e },
		OnComplete: func() {},
	})
	if serr != nil {
		return out, serr
	}
	if !found {
		return out, ErrEmpty
	}
	return out, nil
}
