// Package streams implements a lazy, composable stream library in the
// style of the Java 8 Stream API (JEP 107), used by the scrabble and
// streams-mnemonics benchmarks (Table 1: "data-parallel, memory-bound").
// Every user function passed to a higher-order operation is a closure
// dispatch, recorded as the paper's idynamic metric; parallel terminal
// operations split the source across workers like parallel streams split
// spliterators.
package streams

import (
	"runtime"
	"sort"

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

// Generate returns a stream of fn(0), fn(1), ..., fn(n-1).
func Generate[T any](n int, fn func(int) T) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		for i := 0; i < n; i++ {
			metrics.IncIDynamic()
			if !yield(fn(i)) {
				return
			}
		}
	}}
}

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

// Peek invokes fn on each element passing through.
func (s Stream[T]) Peek(fn func(T)) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		s.forEach(func(x T) bool {
			metrics.IncIDynamic()
			fn(x)
			return yield(x)
		})
	}}
}

// Limit truncates the stream to at most n elements.
func (s Stream[T]) Limit(n int) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		remaining := n
		s.forEach(func(x T) bool {
			if remaining <= 0 {
				return false
			}
			remaining--
			return yield(x)
		})
	}}
}

// Skip drops the first n elements.
func (s Stream[T]) Skip(n int) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		dropped := 0
		s.forEach(func(x T) bool {
			if dropped < n {
				dropped++
				return true
			}
			return yield(x)
		})
	}}
}

// TakeWhile keeps elements until pred first fails.
func (s Stream[T]) TakeWhile(pred func(T) bool) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		s.forEach(func(x T) bool {
			metrics.IncIDynamic()
			if !pred(x) {
				return false
			}
			return yield(x)
		})
	}}
}

// ForEach applies fn to every element.
func (s Stream[T]) ForEach(fn func(T)) {
	s.forEach(func(x T) bool {
		metrics.IncIDynamic()
		fn(x)
		return true
	})
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

// AnyMatch reports whether any element satisfies pred (short-circuiting).
func (s Stream[T]) AnyMatch(pred func(T) bool) bool {
	found := false
	s.forEach(func(x T) bool {
		metrics.IncIDynamic()
		if pred(x) {
			found = true
			return false
		}
		return true
	})
	return found
}

// AllMatch reports whether every element satisfies pred.
func (s Stream[T]) AllMatch(pred func(T) bool) bool {
	ok := true
	s.forEach(func(x T) bool {
		metrics.IncIDynamic()
		if !pred(x) {
			ok = false
			return false
		}
		return true
	})
	return ok
}

// First returns the first element, if any.
func (s Stream[T]) First() (T, bool) {
	var out T
	found := false
	s.forEach(func(x T) bool {
		out, found = x, true
		return false
	})
	return out, found
}

// Sorted returns a stream of the elements in the order defined by less.
// It is a stateful operation that buffers the whole stream.
func (s Stream[T]) Sorted(less func(a, b T) bool) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		buf := s.ToSlice()
		sort.SliceStable(buf, func(i, j int) bool {
			metrics.IncIDynamic()
			return less(buf[i], buf[j])
		})
		for _, x := range buf {
			if !yield(x) {
				return
			}
		}
	}}
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

// MaxBy returns the maximum element under the score function.
func MaxBy[T any](s Stream[T], score func(T) int) (T, bool) {
	var best T
	bestScore, found := 0, false
	s.forEach(func(x T) bool {
		metrics.IncIDynamic()
		sc := score(x)
		if !found || sc > bestScore {
			best, bestScore, found = x, sc, true
		}
		return true
	})
	return best, found
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

// ToMap collects the elements into a map of key(x) to value(x); later keys
// overwrite earlier ones.
func ToMap[T any, K comparable, V any](s Stream[T], key func(T) K, value func(T) V) map[K]V {
	metrics.IncObject()
	out := make(map[K]V)
	s.forEach(func(x T) bool {
		metrics.AddIDynamic(2)
		out[key(x)] = value(x)
		return true
	})
	return out
}

// Distinct removes duplicate elements (first occurrence wins).
func Distinct[T comparable](s Stream[T]) Stream[T] {
	return Stream[T]{forEach: func(yield func(T) bool) {
		metrics.IncObject()
		seen := make(map[T]struct{})
		s.forEach(func(x T) bool {
			if _, dup := seen[x]; dup {
				return true
			}
			seen[x] = struct{}{}
			return yield(x)
		})
	}}
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
// pool (forkjoin.Shared) rather than on per-chunk goroutines, so
// parallel-stream terminals and RDD partition tasks share one bounded
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

// ParReduce folds xs in parallel: each worker folds its chunk with fold
// starting from init(), and merge combines the per-worker accumulators. A
// panicking fold/init is re-panicked at the join.
func ParReduce[T, A any](xs []T, workers int, init func() A, fold func(A, T) A, merge func(A, A) A) A {
	acc, err := ParReduceE(xs, workers, init, fold, merge)
	if err != nil {
		panic(err)
	}
	return acc
}

// ParReduceE is ParReduce surfacing a panicking fold/init as an error.
func ParReduceE[T, A any](xs []T, workers int, init func() A, fold func(A, T) A, merge func(A, A) A) (A, error) {
	workers = parallelWorkers(workers)
	chunks := splitIndex(len(xs), workers)
	partials := make([]A, len(chunks))
	var zero A
	err := forkjoin.Shared().ForMaxE(len(chunks), 1, workers, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			loc := metrics.Acquire()
			loc.IncIDynamic()
			acc := init()
			for i := chunks[ci][0]; i < chunks[ci][1]; i++ {
				loc.IncIDynamic()
				acc = fold(acc, xs[i])
			}
			partials[ci] = acc
		}
	})
	if err != nil {
		return zero, err
	}
	metrics.IncIDynamic()
	acc := init()
	for _, p := range partials {
		metrics.IncIDynamic()
		acc = merge(acc, p)
	}
	return acc, nil
}

// ParForEach applies fn to every element with at most the given number of
// concurrent executors, on the shared work-stealing pool. A panicking fn
// is re-panicked at the join.
func ParForEach[T any](xs []T, workers int, fn func(T)) {
	if err := ParForEachE(xs, workers, fn); err != nil {
		panic(err)
	}
}

// ParForEachE is ParForEach surfacing a panicking fn as an error.
func ParForEachE[T any](xs []T, workers int, fn func(T)) error {
	workers = parallelWorkers(workers)
	return forkjoin.Shared().ForMaxE(len(xs), 0, workers, func(lo, hi int) {
		loc := metrics.Acquire()
		for i := lo; i < hi; i++ {
			loc.IncIDynamic()
			fn(xs[i])
		}
	})
}

// splitIndex partitions [0, n) into at most k non-empty contiguous ranges.
func splitIndex(n, k int) [][2]int {
	if n == 0 {
		return nil
	}
	if k > n {
		k = n
	}
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		if hi > lo {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}
