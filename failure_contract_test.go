package renaissance_test

import (
	"errors"
	"sync/atomic"
	"testing"

	"renaissance/internal/forkjoin"
	"renaissance/internal/futures"
	"renaissance/internal/rdd"
	"renaissance/internal/streams"
)

// TestParallelFailureContract pins the one failure contract every parallel
// entry point shares: a body that panics is re-raised at the join as a
// *forkjoin.TaskError that errors.Is the panic value, and the shared pool
// runs a clean job afterwards. A future is the one form that returns the
// failure instead: Await's error is that same *forkjoin.TaskError, which
// the futures cases re-panic so that one check covers every case.
func TestParallelFailureContract(t *testing.T) {
	sentinel := errors.New("contract sentinel")
	xs := make([]int, 256)
	for i := range xs {
		xs[i] = i
	}
	failAt := func(x int) int {
		if x == 100 {
			panic(sentinel)
		}
		return x
	}
	cases := []struct {
		name string
		run  func()
	}{
		{"forkjoin.For", func() {
			forkjoin.For(len(xs), 0, func(lo, hi int) {
				for _, x := range xs[lo:hi] {
					failAt(x)
				}
			})
		}},
		{"Pool.Invoke", func() {
			forkjoin.Shared().Invoke(func(*forkjoin.Worker) any { panic(sentinel) })
		}},
		{"Worker.Join", func() {
			forkjoin.Shared().Invoke(func(w *forkjoin.Worker) any {
				return w.Join(w.Fork(func(*forkjoin.Worker) any { panic(sentinel) }))
			})
		}},
		{"rdd.Map", func() {
			rdd.Map(rdd.Parallelize(xs, 8), failAt)
		}},
		{"rdd.ReduceByKey", func() {
			pairs := rdd.Map(rdd.Parallelize(xs, 8), func(x int) rdd.Pair[int, int] { return rdd.KV(x%7, x) })
			rdd.ReduceByKey(pairs, 4, func(a, b int) int { return a + failAt(b) })
		}},
		{"rdd.Count", func() {
			rdd.Parallelize(xs, 8).Filter(func(x int) bool { return failAt(x) >= 0 }).Count()
		}},
		{"rdd.Aggregate", func() {
			rdd.Aggregate(rdd.Map(rdd.Parallelize(xs, 8), failAt),
				func() int { return 0 },
				func(a, x int) int { return a + x },
				func(a, b int) int { return a + b })
		}},
		{"streams.ParMap", func() {
			streams.ParMap(xs, 0, failAt)
		}},
		{"futures.Async", func() {
			_, err := futures.Async(func() (int, error) { return failAt(100), nil }).Await()
			panic(err)
		}},
		{"futures.Map", func() {
			_, err := futures.Map(futures.Async(func() (int, error) { return 100, nil }), failAt).Await()
			panic(err)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := repanicked(c.run)
			if te, ok := p.(*forkjoin.TaskError); !ok || !errors.Is(te, sentinel) {
				t.Fatalf("recovered %v (%T), want a *forkjoin.TaskError wrapping the sentinel", p, p)
			}
			var sum atomic.Int64
			forkjoin.For(1000, 0, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			})
			if sum.Load() != 499500 {
				t.Fatalf("clean job on the shared pool summed %d, want 499500", sum.Load())
			}
		})
	}
}

// repanicked runs f and returns what it panicked with, or nil.
func repanicked(f func()) (p any) {
	defer func() { p = recover() }()
	f()
	return nil
}
