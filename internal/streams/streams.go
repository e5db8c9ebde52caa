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
// times if its source supports it (slice sources do). The zero Stream is
// empty.
//
// A stream is either backed by a slice (src, no closure: FromSlice and Of
// allocate nothing) or by push, which feeds yield until the sequence ends
// or yield returns false and reports whether it reached the end. Passing
// that report up is how a consumer's early stop crosses any number of
// FlatMap levels without a per-element closure or flag.
type Stream[T any] struct {
	src  []T
	push func(yield func(T) bool) bool
}

// forEach feeds the elements to yield in order and reports whether the
// stream ran to the end (false: yield asked to stop).
func (s Stream[T]) forEach(yield func(T) bool) bool {
	if s.push != nil {
		return s.push(yield)
	}
	for _, x := range s.src {
		if !yield(x) {
			return false
		}
	}
	return true
}

// FromSlice returns a stream over the slice's elements.
func FromSlice[T any](xs []T) Stream[T] { return Stream[T]{src: xs} }

// Of returns a stream of the given elements.
func Of[T any](xs ...T) Stream[T] { return FromSlice(xs) }

// Range returns a stream of the ints in [lo, hi).
func Range(lo, hi int) Stream[int] {
	return Stream[int]{push: func(yield func(int) bool) bool {
		for i := lo; i < hi; i++ {
			if !yield(i) {
				return false
			}
		}
		return true
	}}
}

// Filter keeps the elements satisfying pred.
func (s Stream[T]) Filter(pred func(T) bool) Stream[T] {
	return Stream[T]{push: func(yield func(T) bool) bool {
		return s.forEach(func(x T) bool {
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
	return Stream[U]{push: func(yield func(U) bool) bool {
		return s.forEach(func(x T) bool {
			metrics.IncIDynamic()
			return yield(fn(x))
		})
	}}
}

// FlatMap maps each element to a stream and concatenates the results. The
// consumer's yield is handed to each inner stream as is.
func FlatMap[T, U any](s Stream[T], fn func(T) Stream[U]) Stream[U] {
	return Stream[U]{push: func(yield func(U) bool) bool {
		return s.forEach(func(x T) bool {
			metrics.IncIDynamic()
			return fn(x).forEach(yield)
		})
	}}
}

// Reduce folds the stream left-to-right starting from init. A slice
// source is looped here, with its dispatches counted once per call.
func Reduce[T, A any](s Stream[T], init A, fn func(A, T) A) A {
	if s.push != nil {
		return reducePush(s.push, init, fn)
	}
	metrics.AddIDynamic(int64(len(s.src)))
	acc := init
	for _, x := range s.src {
		acc = fn(acc, x)
	}
	return acc
}

// reducePush is Reduce over a push source. It is a function of its own so
// that only this path's accumulator is captured, and moved to the heap.
func reducePush[T, A any](push func(yield func(T) bool) bool, acc A, fn func(A, T) A) A {
	push(func(x T) bool {
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

// CountBy counts the elements by key(x): Java's groupingBy(classifier,
// counting()), which keeps no bucket of elements. A slice source is looped
// here, with its dispatches counted once per call.
func CountBy[T any, K comparable](s Stream[T], key func(T) K) map[K]int {
	metrics.IncObject()
	out := make(map[K]int)
	if s.push != nil {
		countPush(s.push, key, out)
		return out
	}
	metrics.AddIDynamic(int64(len(s.src)))
	for _, x := range s.src {
		out[key(x)]++
	}
	return out
}

// countPush is CountBy's loop over a push source, kept apart so that the
// slice path captures nothing.
func countPush[T any, K comparable](push func(yield func(T) bool) bool, key func(T) K, out map[K]int) {
	push(func(x T) bool {
		metrics.IncIDynamic()
		out[key(x)]++
		return true
	})
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
// pool (forkjoin.Shared) rather than on per-chunk goroutines. A panicking
// fn cancels the remaining chunks and is re-panicked at the join as a
// *forkjoin.TaskError.
func ParMap[T, U any](xs []T, workers int, fn func(T) U) []U {
	workers = parallelWorkers(workers)
	metrics.IncArray()
	out := make([]U, len(xs))
	err := forkjoin.Shared().ForRetryE(len(xs), 0, workers, 0, func(lo, hi, _ int) {
		metrics.AddIDynamic(int64(hi - lo))
		for i := lo; i < hi; i++ {
			out[i] = fn(xs[i])
		}
	})
	if err != nil {
		panic(err)
	}
	return out
}
