// Package rdd holds the data-parallel substrate of the paper's Spark-based
// benchmarks — als, chi-square, dec-tree, log-regression, movie-lens,
// naive-bayes and page-rank (Table 1: "data-parallel, machine learning /
// compute-bound / atomics"). It has two parts (DESIGN.md §7, §14):
//
//   - The MLlib-shaped kernels the seven workloads run (ml.go, als.go,
//     graph.go): flat training sets (Points, Counts), CSR rating and link
//     graphs (RatingsGraph, Graph), built once at workload setup and
//     trained in place by chunked passes on the shared fork–join pool.
//   - A Spark-style dataset engine in this file that evaluates eagerly:
//     an RDD is its materialized partitions, Map, Filter and ReduceByKey
//     (a hash shuffle) each run their jobs when called, and Count and
//     Aggregate run one job over the partitions. No workload runs it; the
//     rbench rdd.* probes do, and it goes when they do.
//
// Every parallel loop of both runs through forRetry (recovery.go): a
// failed chunk is recomputed under a fixed budget. A chunk that spends it
// makes the seven kernel entry points (ALSTrain, ChiSquare, DecisionTree,
// Accuracy, LogisticRegression, NaiveBayes, Graph.PageRank) return its
// *forkjoin.TaskError and no result. Only the probe-only engine re-panics
// it, at the join of the call that ran the partition: Map, Filter,
// ReduceByKey, Count or Aggregate.
package rdd

import (
	"errors"
	"hash/maphash"
	"runtime"

	"renaissance/internal/metrics"
)

// ErrEmpty is returned by the ML kernels on an empty dataset.
var ErrEmpty = errors.New("rdd: empty dataset")

// RDD is a partitioned dataset of T, held as its materialized partitions.
type RDD[T any] struct {
	parts [][]T
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
// see clampPartitions for the clamping rule). The partitions are
// subslices of data, which is not copied.
func Parallelize[T any](data []T, partitions int) *RDD[T] {
	partitions = clampPartitions(partitions, defaultPartitions, len(data))
	metrics.IncObject()
	n := len(data)
	parts := make([][]T, partitions)
	for p := range parts {
		lo, hi := p*n/partitions, (p+1)*n/partitions
		parts[p] = data[lo:hi:hi]
	}
	return &RDD[T]{parts}
}

// Cache returns r: every dataset is already materialized.
func (r *RDD[T]) Cache() *RDD[T] { return r }

// Map applies fn to every element, one job over the partitions.
func Map[T, U any](r *RDD[T], fn func(T) U) *RDD[U] {
	metrics.IncObject()
	return &RDD[U]{runParts(len(r.parts), func(p int) []U {
		in := r.parts[p]
		metrics.IncArray()
		out := make([]U, len(in))
		for i, x := range in {
			out[i] = fn(x)
		}
		metrics.AddIDynamic(int64(len(in)))
		return out
	})}
}

// Filter keeps the elements satisfying pred, one job over the partitions.
func (r *RDD[T]) Filter(pred func(T) bool) *RDD[T] {
	metrics.IncObject()
	return &RDD[T]{runParts(len(r.parts), func(p int) []T {
		in := r.parts[p]
		metrics.IncArray()
		out := make([]T, 0, len(in))
		for _, x := range in {
			if pred(x) {
				out = append(out, x)
			}
		}
		metrics.AddIDynamic(int64(len(in)))
		return out
	})}
}

// Count returns the number of elements, one job over the partitions.
func (r *RDD[T]) Count() int {
	total := 0
	for _, n := range runParts(len(r.parts), func(p int) int {
		metrics.IncMethod()
		return len(r.parts[p])
	}) {
		total += n
	}
	return total
}

// Aggregate folds each partition from zero() with seqOp, then merges the
// per-partition accumulators with combOp (Spark's treeAggregate shape,
// flattened).
func Aggregate[T, A any](r *RDD[T], zero func() A, seqOp func(A, T) A, combOp func(A, A) A) A {
	partials := runParts(len(r.parts), func(p int) A {
		metrics.IncMethod()
		acc := zero()
		for _, x := range r.parts[p] {
			acc = seqOp(acc, x)
		}
		metrics.AddIDynamic(int64(1 + len(r.parts[p])))
		return acc
	})
	metrics.AddIDynamic(int64(1 + len(partials))) // zero, then each combOp
	out := zero()
	for _, p := range partials {
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

// ReduceByKey merges the values of each key with fn, shuffling into
// numPartitions output partitions (0 keeps the parent's count; see
// clampPartitions). It runs two jobs: each parent partition hashes its
// pairs into a private row of buckets, then output partition b folds
// column b of those rows in partition order. A key's values are therefore
// reduced left to right in input order, and its output partition lists
// the keys in the order they first appear.
func ReduceByKey[K comparable, V any](r *RDD[Pair[K, V]], numPartitions int, fn func(V, V) V) *RDD[Pair[K, V]] {
	metrics.IncObject()
	numPartitions = clampPartitions(numPartitions, len(r.parts), shuffleLimit(len(r.parts)))
	rows := runParts(len(r.parts), func(p int) [][]Pair[K, V] {
		metrics.IncArray()
		row := make([][]Pair[K, V], numPartitions)
		for _, kv := range r.parts[p] {
			b := hashKey(kv.Key, numPartitions)
			row[b] = append(row[b], kv)
		}
		return row
	})
	return &RDD[Pair[K, V]]{runParts(numPartitions, func(b int) []Pair[K, V] {
		metrics.IncObject()
		at := make(map[K]int)
		var out []Pair[K, V]
		merges := 0
		for _, row := range rows {
			for _, kv := range row[b] {
				if i, ok := at[kv.Key]; ok {
					out[i].Value = fn(out[i].Value, kv.Value)
					merges++
				} else {
					at[kv.Key] = len(out)
					out = append(out, kv)
				}
			}
		}
		metrics.AddIDynamic(int64(merges))
		return out
	})}
}
