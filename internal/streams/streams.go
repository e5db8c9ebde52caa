// Package streams implements a lazy, composable stream library in the
// style of the Java 8 Stream API (JEP 107), used by the scrabble and
// streams-mnemonics benchmarks (Table 1: "data-parallel, memory-bound").
// Every user function passed to a higher-order operation is a closure
// dispatch, recorded as the paper's idynamic metric; the parallel map
// splits its source across workers like parallel streams split
// spliterators.
package streams

import (
	"runtime"

	"renaissance/internal/forkjoin"
	"renaissance/internal/metrics"
)

// Stream is a lazy sequence of T. Operations build a pipeline that runs
// when a terminal operation consumes it. A Stream may be consumed multiple
// times if its source supports it (slice sources do).
type Stream[T any] struct {
	forEach func(yield func(T) bool)
}

// FromSlice returns a stream over the slice's elements.
func FromSlice[T any](xs []T) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		for _, x := range xs {
			if !yield(x) {
				return
			}
		}
	}}
}

// Of returns a stream of the given elements.
func Of[T any](xs ...T) Stream[T] { return FromSlice(xs) }

// Range returns a stream of the ints in [lo, hi).
func Range(lo, hi int) Stream[int] {
	return Stream[int]{forEach: func(yield func(int) bool) {
		for i := lo; i < hi; i++ {
			if !yield(i) {
				return
			}
		}
	}}
}

// Filter keeps the elements satisfying pred.
func (s Stream[T]) Filter(pred func(T) bool) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		s.forEach(func(x T) bool {
			metrics.IncIDynamic()
			if pred(x) {
				return yield(x)
			}
			return true
		})
	}}
}

// ToSlice collects the stream into a slice.
func (s Stream[T]) ToSlice() []T {
	metrics.IncArray()
	var out []T
	s.forEach(func(x T) bool {
		out = append(out, x)
		return true
	})
	return out
}

// Count returns the number of elements.
func (s Stream[T]) Count() int {
	n := 0
	s.forEach(func(T) bool {
		n++
		return true
	})
	return n
}

// Map transforms each element with fn.
func Map[T, U any](s Stream[T], fn func(T) U) Stream[U] {
	return Stream[U]{forEach: func(yield func(U) bool) {
		s.forEach(func(x T) bool {
			metrics.IncIDynamic()
			return yield(fn(x))
		})
	}}
}

// FlatMap maps each element to a stream and concatenates the results.
func FlatMap[T, U any](s Stream[T], fn func(T) Stream[U]) Stream[U] {
	return Stream[U]{forEach: func(yield func(U) bool) {
		s.forEach(func(x T) bool {
			metrics.IncIDynamic()
			stop := false
			fn(x).forEach(func(u U) bool {
				if !yield(u) {
					stop = true
					return false
				}
				return true
			})
			return !stop
		})
	}}
}

// Reduce folds the stream left-to-right starting from init.
func Reduce[T, A any](s Stream[T], init A, fn func(A, T) A) A {
	acc := init
	s.forEach(func(x T) bool {
		metrics.IncIDynamic()
		acc = fn(acc, x)
		return true
	})
	return acc
}

// GroupBy collects the elements into buckets keyed by key(x).
func GroupBy[T any, K comparable](s Stream[T], key func(T) K) map[K][]T {
	metrics.IncObject()
	out := make(map[K][]T)
	s.forEach(func(x T) bool {
		metrics.IncIDynamic()
		k := key(x)
		out[k] = append(out[k], x)
		return true
	})
	return out
}

// parallelWorkers resolves the worker-count argument.
func parallelWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// ParMap applies fn to every element of xs with at most the given number
// of concurrent executors (0 = GOMAXPROCS) and returns the results in
// order — the parallel stream map. Chunks run on the shared work-stealing
// pool (forkjoin.Shared) rather than on per-chunk goroutines, so the
// parallel stream map and RDD partition tasks share one bounded
// executor. A panicking fn is re-panicked at the join as a
// *forkjoin.TaskError; use ParMapE to receive it as an error.
func ParMap[T, U any](xs []T, workers int, fn func(T) U) []U {
	out, err := ParMapE(xs, workers, fn)
	if err != nil {
		panic(err)
	}
	return out
}

// ParMapE is ParMap surfacing a panicking fn as an error (the first
// failure; remaining chunks are cancelled) instead of re-panicking at the
// join. The partially filled result is discarded.
func ParMapE[T, U any](xs []T, workers int, fn func(T) U) ([]U, error) {
	workers = parallelWorkers(workers)
	metrics.IncArray()
	out := make([]U, len(xs))
	err := forkjoin.Shared().ForMaxE(len(xs), 0, workers, func(lo, hi int) {
		loc := metrics.Acquire()
		for i := lo; i < hi; i++ {
			loc.IncIDynamic()
			out[i] = fn(xs[i])
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
