// The retryable shuffle exchange (DESIGN.md §14): the materialization
// point of a wide dependency, and the barrier a failed downstream
// partition's recompute replays from once it has published.
package rdd

import (
	"sync"
	"sync/atomic"
)

// ShuffleEpochs reports how many exchange attempts this dataset's wide
// dependency has started: 0 before any action and for narrow datasets, 1
// after a clean exchange, more when failed attempts were retried under
// fresh epochs.
func (r *RDD[T]) ShuffleEpochs() int64 {
	if r.wideEpochs == nil {
		return 0
	}
	return r.wideEpochs.Load()
}

// exchange is the retryable materialization point of a wide dependency —
// the epoch-tagged replacement for the sync.Once that used to guard a
// shuffle. A successful attempt publishes its payload once (readers after
// that are a single atomic load); a failed attempt leaves the slot empty
// and releases the mutex, so the next consumer retries the whole
// computation under a fresh epoch instead of inheriting a poisoned Once
// whose nil buckets every downstream partition would crash on forever.
type exchange[T any] struct {
	mu    sync.Mutex
	out   atomic.Pointer[T]
	epoch atomic.Int64
}

// ensure returns the published payload, computing it under the mutex on
// first use. compute may panic (a producer's retry budget exhausted, an
// injected rdd.shuffle fault): the panic unwinds through the calling
// consumer's own recovery loop, which retries ensure — a fresh epoch —
// under its own recompute budget, bounding the total attempts.
func (e *exchange[T]) ensure(compute func() T) T {
	if v := e.out.Load(); v != nil {
		return *v
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if v := e.out.Load(); v != nil {
		return *v
	}
	e.epoch.Add(1)
	v := compute()
	e.out.Store(&v)
	return v
}
