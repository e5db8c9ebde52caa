// Package rdd holds the data-parallel substrate of the paper's Spark-based
// benchmarks — als, chi-square, dec-tree, log-regression, movie-lens,
// naive-bayes and page-rank (Table 1: "data-parallel, machine learning /
// compute-bound / atomics"). It has two parts (DESIGN.md §7, §14):
//
//   - The MLlib-shaped kernels the seven workloads run (ml.go, als.go,
//     graph.go): flat training sets (Points), CSR rating and link graphs
//     (RatingsGraph, Graph), built once at workload setup and trained in
//     place by chunked passes on the shared fork–join pool. Passes that
//     write per-partition state run under lineage-style recovery
//     (forPartsRetry, recovery.go): a failed partition is recomputed under
//     a fixed retry budget.
//   - A Spark-style dataset engine in this file and exchange.go: lazily
//     fused narrow stages (Map, Filter) over Parallelize, a Cache fusion
//     barrier, a lock-free hash shuffle behind ReduceByKey with retryable
//     epochs, and the Count and Aggregate actions, whose partitions run on
//     the same recovery path. No workload runs it; the rbench rdd.* probes
//     do, and it goes when they do.
//
// Every parallel entry point has one failure contract: a persistent
// partition failure re-panics at the join as a *forkjoin.TaskError.
package rdd

import (
	"errors"
	"hash/maphash"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"renaissance/internal/chaos"
	"renaissance/internal/metrics"
)

// ErrEmpty is returned by the ML kernels on an empty dataset.
var ErrEmpty = errors.New("rdd: empty dataset")

// RDD is a partitioned, lazily evaluated dataset of T.
type RDD[T any] struct {
	numPartitions int

	// iterate is the fused compute representation: it pushes partition
	// p's elements into sink, stopping early when sink returns false.
	// Narrow transformations compose here without materializing.
	iterate func(p int, sink func(T) bool)

	// sizeHint estimates partition p's element count so materialization
	// can allocate its output once. It is a hint, not a contract: Filter
	// keeps its parent's (an upper bound).
	sizeHint func(p int) int

	// cache, when non-nil, holds one publication slot per partition (see
	// Cache and cachedPartition).
	cache []cacheSlot[T]

	// wideEpochs points at the exchange-attempt counter of a wide dataset
	// (nil for narrow ones); see ShuffleEpochs.
	wideEpochs *atomic.Int64
}

// cacheSlot memoizes one partition: an atomic publication pointer for the
// lock-free read path, and a mutex serializing the first computation so a
// partition is never evaluated twice by racing actions. Unlike the
// sync.Once this replaces, a panic during materialization releases the
// mutex with the slot still empty — the partition can be recomputed —
// instead of permanently marking the Once done with a nil value that
// every later action would silently read as an empty partition.
type cacheSlot[T any] struct {
	mu  sync.Mutex
	val atomic.Pointer[[]T]
}

// defaultPartitions is the Parallelize partition count when none is given.
const defaultPartitions = 8

// shuffleGrowth bounds how far a wide transformation may grow the
// partition count over max(parent partitions, GOMAXPROCS); see
// clampPartitions.
const shuffleGrowth = 4

// clampPartitions is the engine's single partition-count rule; every
// operation that accepts a partition count resolves it here.
//
//   - requested <= 0 inherits fallback: defaultPartitions for
//     Parallelize, the parent's count for wide transformations.
//   - The count never exceeds limit: Parallelize caps at len(data) (a
//     partition can't hold less than one element), and wide
//     transformations cap at shuffleGrowth × max(parent partitions,
//     GOMAXPROCS) — buckets beyond that are guaranteed empty-partition
//     churn, each one a scheduled task that computes nothing.
//   - The result is at least 1, so an empty dataset still has one (empty)
//     partition.
func clampPartitions(requested, fallback, limit int) int {
	p := requested
	if p <= 0 {
		p = fallback
	}
	if p > limit {
		p = limit
	}
	if p < 1 {
		p = 1
	}
	return p
}

// shuffleLimit is the wide-transformation cap fed to clampPartitions.
func shuffleLimit(parentPartitions int) int {
	limit := runtime.GOMAXPROCS(0)
	if parentPartitions > limit {
		limit = parentPartitions
	}
	return shuffleGrowth * limit
}

// Parallelize splits data into the given number of partitions (0 means 8;
// see clampPartitions for the clamping rule).
func Parallelize[T any](data []T, partitions int) *RDD[T] {
	partitions = clampPartitions(partitions, defaultPartitions, len(data))
	metrics.IncObject()
	n := len(data)
	return &RDD[T]{
		numPartitions: partitions,
		sizeHint: func(p int) int {
			return (p+1)*n/partitions - p*n/partitions
		},
		iterate: func(p int, sink func(T) bool) {
			lo, hi := p*n/partitions, (p+1)*n/partitions
			for _, x := range data[lo:hi] {
				if !sink(x) {
					return
				}
			}
		},
	}
}

// Cache memoizes partition contents: each partition is computed at most
// once across all downstream actions. A cached dataset is a fusion
// barrier — downstream stages read the memoized slice instead of
// re-running the upstream pipeline — and a recovery barrier: downstream
// recomputes replay from the memoized slice, never the upstream chain.
func (r *RDD[T]) Cache() *RDD[T] {
	if r.cache == nil {
		r.cache = make([]cacheSlot[T], r.numPartitions)
	}
	return r
}

// run streams partition p through sink, reading from the cache when the
// dataset is cached. This is how narrow children consume their parent:
// elements flow stage to stage without intermediate slices.
func (r *RDD[T]) run(p int, sink func(T) bool) {
	if r.cache != nil {
		for _, x := range r.cachedPartition(p) {
			if !sink(x) {
				return
			}
		}
		return
	}
	r.iterate(p, sink)
}

// materialize evaluates partition p into a slice: the whole fused
// pipeline runs in one pass into a single size-hinted allocation.
func (r *RDD[T]) materialize(p int) []T {
	loc := metrics.Acquire()
	loc.IncArray()
	out := make([]T, 0, r.sizeHint(p))
	r.iterate(p, func(x T) bool {
		out = append(out, x)
		return true
	})
	return out
}

// cachedPartition returns partition p's memoized contents, computing and
// publishing them on first use. Racing actions serialize on the slot
// mutex (the loser waits and reads the winner's slice — each partition is
// still computed exactly once per success); a failed attempt leaves the
// slot empty for the next action's recompute.
func (r *RDD[T]) cachedPartition(p int) []T {
	s := &r.cache[p]
	if v := s.val.Load(); v != nil {
		return *v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v := s.val.Load(); v == nil {
		part := r.materialize(p)
		s.val.Store(&part)
	}
	return *s.val.Load()
}

// Map applies fn to every element (narrow dependency, fused).
func Map[T, U any](r *RDD[T], fn func(T) U) *RDD[U] {
	metrics.IncObject()
	return &RDD[U]{
		numPartitions: r.numPartitions,
		sizeHint:      r.sizeHint,
		iterate: func(p int, sink func(U) bool) {
			// One shard-pinned handle per partition pass: the per-element
			// closure-dispatch bumps below are the engine's hottest
			// instrumentation path.
			loc := metrics.Acquire()
			r.run(p, func(x T) bool {
				loc.IncIDynamic()
				return sink(fn(x))
			})
		},
	}
}

// Filter keeps the elements satisfying pred (narrow dependency, fused).
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	metrics.IncObject()
	return &RDD[T]{
		numPartitions: r.numPartitions,
		sizeHint:      r.sizeHint, // upper bound: filtering only shrinks
		iterate: func(p int, sink func(T) bool) {
			loc := metrics.Acquire()
			r.run(p, func(x T) bool {
				loc.IncIDynamic()
				if pred(x) {
					return sink(x)
				}
				return true
			})
		},
	}
}

// Count returns the number of elements. The fused pipeline streams
// through a counter — nothing is materialized. A persistent partition
// failure re-panics at the join as a *forkjoin.TaskError.
func (r *RDD[T]) Count() int {
	counts, err := runParts(r.numPartitions, func(p int) int {
		metrics.IncMethod()
		n := 0
		r.run(p, func(T) bool { n++; return true })
		return n
	}, nil)
	if err != nil {
		panic(err)
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return total
}

// Aggregate folds each partition from zero() with seqOp, then merges the
// per-partition accumulators with combOp (Spark's treeAggregate shape,
// flattened). Each partition streams through its fused pipeline directly
// into the accumulator. A persistent partition failure re-panics at the
// join as a *forkjoin.TaskError.
func Aggregate[T, A any](r *RDD[T], zero func() A, seqOp func(A, T) A, combOp func(A, A) A) A {
	partials, err := runParts(r.numPartitions, func(p int) A {
		metrics.IncMethod()
		loc := metrics.Acquire()
		loc.IncIDynamic()
		acc := zero()
		r.run(p, func(x T) bool {
			loc.IncIDynamic()
			acc = seqOp(acc, x)
			return true
		})
		return acc
	}, nil)
	if err != nil {
		panic(err)
	}
	metrics.IncIDynamic()
	out := zero()
	for _, p := range partials {
		metrics.IncIDynamic()
		out = combOp(out, p)
	}
	return out
}

// Pair is a key-value record for pair-RDD operations.
type Pair[K comparable, V any] struct {
	Key   K
	Value V
}

// KV constructs a Pair.
func KV[K comparable, V any](k K, v V) Pair[K, V] { return Pair[K, V]{k, v} }

// shuffleSeed makes hashKey deterministic within a process while varying
// across processes (like Go's own map hashing).
var shuffleSeed = maphash.MakeSeed()

// hashKey produces the shuffle bucket of a key. maphash.Comparable
// hashes any comparable key through the runtime's memory hash, so
// struct, float, and pointer keys spread across buckets like ints and
// strings do. (The previous hand-rolled fallback mixed one constant byte
// for non-int/string keys, collapsing every such shuffle into a single
// bucket.)
func hashKey[K comparable](k K, buckets int) int {
	return int(maphash.Comparable(shuffleSeed, k) % uint64(buckets))
}

// stagingRow is one producer's private row of the shuffle exchange
// matrix: one append buffer per output bucket. Rows are pooled and reused
// across shuffles, so steady-state shuffle writes land in warm,
// pre-grown buffers.
type stagingRow[K comparable, V any] struct {
	buckets [][]Pair[K, V]
}

// stagingPools holds one sync.Pool of rows per concrete pair type
// (package-level variables cannot be generic, so pools are keyed by
// reflect.Type).
var stagingPools sync.Map // reflect.Type -> *sync.Pool

func stagingPoolFor[K comparable, V any]() *sync.Pool {
	key := reflect.TypeOf((*stagingRow[K, V])(nil))
	if p, ok := stagingPools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := stagingPools.LoadOrStore(key, &sync.Pool{
		New: func() any { return new(stagingRow[K, V]) },
	})
	return p.(*sync.Pool)
}

// getStagingRow returns a row with numBuckets empty, capacity-retaining
// buffers; fresh buffers are size-hinted at hint/numBuckets elements.
func getStagingRow[K comparable, V any](pool *sync.Pool, numBuckets, hint int) *stagingRow[K, V] {
	row := pool.Get().(*stagingRow[K, V])
	// One logical buffer acquisition per producer row, counted whether or
	// not the pool had a warm row: sync.Pool hits depend on GC and
	// scheduling timing, and metric counts must be run-to-run stable.
	metrics.Acquire().IncArray()
	if cap(row.buckets) < numBuckets {
		row.buckets = make([][]Pair[K, V], numBuckets)
	}
	row.buckets = row.buckets[:numBuckets]
	per := hint/numBuckets + 1
	for i := range row.buckets {
		if row.buckets[i] == nil {
			row.buckets[i] = make([]Pair[K, V], 0, per)
		} else {
			row.buckets[i] = row.buckets[i][:0]
		}
	}
	return row
}

// putStagingRow recycles a row, dropping element references so pooled
// buffers don't pin shuffled data for the GC.
func putStagingRow[K comparable, V any](pool *sync.Pool, row *stagingRow[K, V]) {
	for i := range row.buckets {
		clear(row.buckets[i])
		row.buckets[i] = row.buckets[i][:0]
	}
	pool.Put(row)
}

// shuffle hash-partitions the parent's pairs into numPartitions buckets
// with a two-phase lock-free exchange:
//
// Phase 1 — producers: each parent partition streams its fused pipeline
// directly into a private row of the [producer][bucket] staging matrix.
// No two producers share state, so there is nothing to lock (the seed
// implementation serialized producers behind per-bucket mutexes here —
// the synchronization point the paper's page-rank "atomics" focus calls
// out).
//
// Phase 2 — consumers: each output bucket concatenates its column of the
// matrix with one exact-sized allocation.
//
// Both phases run as partition jobs on the recovery engine (runParts):
// a producer or consumer that panics — user code or an injected
// rdd.shuffle fault — is retried per partition under the task budget,
// and only a persistent failure panics out of shuffle, unwinding into
// the enclosing exchange whose next consumer retries under a fresh
// epoch. The staging rows a failed producer phase had already published
// are recycled via the job's discard callback.
func shuffle[K comparable, V any](r *RDD[Pair[K, V]], numPartitions int) [][]Pair[K, V] {
	producers := r.numPartitions
	pool := stagingPoolFor[K, V]()

	metrics.IncArray()
	discardRow := func(row *stagingRow[K, V]) {
		if row != nil {
			putStagingRow(pool, row)
		}
	}
	staging, err := runParts(producers, func(p int) *stagingRow[K, V] {
		if chaos.Maybe("rdd.shuffle") {
			// A failing producer used to poison this shuffle's sync.Once
			// forever; now the attempt's staging is discarded and the
			// partition retries, with a persistent failure unwinding into
			// the exchange for an epoch-level retry.
			panic(&chaos.InjectedError{Point: "rdd.shuffle"})
		}
		metrics.IncMethod()
		row := getStagingRow[K, V](pool, numPartitions, r.sizeHint(p))
		r.run(p, func(kv Pair[K, V]) bool {
			b := hashKey(kv.Key, numPartitions)
			row.buckets[b] = append(row.buckets[b], kv)
			return true
		})
		return row
	}, discardRow)
	if err != nil {
		panic(err)
	}

	metrics.IncArray()
	buckets, err := runParts(numPartitions, func(b int) []Pair[K, V] {
		loc := metrics.Acquire()
		total := 0
		for _, row := range staging {
			total += len(row.buckets[b])
		}
		loc.IncArray()
		out := make([]Pair[K, V], 0, total)
		for _, row := range staging {
			out = append(out, row.buckets[b]...)
		}
		return out
	}, nil)
	for _, row := range staging {
		putStagingRow(pool, row)
	}
	if err != nil {
		panic(err)
	}
	return buckets
}

// ReduceByKey merges the values of each key with fn, shuffling into
// numPartitions output partitions (0 keeps the parent's count; see
// clampPartitions).
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], numPartitions int, fn func(V, V) V) *RDD[Pair[K, V]] {
	metrics.IncObject()
	numPartitions = clampPartitions(numPartitions, r.numPartitions, shuffleLimit(r.numPartitions))
	ex := &exchange[[][]Pair[K, V]]{}
	ensure := func() [][]Pair[K, V] {
		return ex.ensure(func() [][]Pair[K, V] { return shuffle(r, numPartitions) })
	}
	return &RDD[Pair[K, V]]{
		numPartitions: numPartitions,
		wideEpochs:    &ex.epoch,
		sizeHint: func(p int) int {
			return len(ensure()[p])
		},
		iterate: func(p int, sink func(Pair[K, V]) bool) {
			buckets := ensure()
			loc := metrics.Acquire()
			loc.IncObject()
			agg := make(map[K]V, len(buckets[p]))
			for _, kv := range buckets[p] {
				if old, ok := agg[kv.Key]; ok {
					loc.IncIDynamic()
					agg[kv.Key] = fn(old, kv.Value)
				} else {
					agg[kv.Key] = kv.Value
				}
			}
			for k, v := range agg {
				if !sink(Pair[K, V]{k, v}) {
					return
				}
			}
		},
	}
}
