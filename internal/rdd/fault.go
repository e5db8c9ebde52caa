// Error-surfacing actions. The legacy actions (Collect, Count, Aggregate)
// follow the fork–join discipline of re-panicking a partition task's
// failure at the join; these variants run the same fused pipelines
// through the recovery engine (runParts) and return the first *persistent*
// failure as a *forkjoin.TaskError instead. A partition panic — user code,
// a nested shuffle, an injected chaos fault — no longer fails the action
// outright: the partition is recomputed from its lineage under the
// per-partition retry budget (SetTaskRetries), and only when the budget is
// spent does the final TaskError surface. A persistently failing partition
// cancels its unclaimed siblings, so the action still returns promptly
// without leaking executor helpers.
//
// A panic inside a shuffle (wide dependency) no longer poisons the
// exchange: the failed attempt's staging is discarded, and the next
// consumer retries the whole exchange under a fresh epoch (see
// exchange.ensure in exchange.go). Only persistent failure — every retry
// exhausted — degrades to the pre-recovery behavior of one error
// surfacing from the enclosing action.
package rdd

import (
	"renaissance/internal/metrics"
)

// CollectE evaluates every partition with per-partition recovery
// (runParts, recovery.go) and returns all elements, surfacing a persistent
// partition failure as a *forkjoin.TaskError.
func (r *RDD[T]) CollectE() ([]T, error) {
	parts, err := runParts(r.numPartitions, r.partition, nil)
	if err != nil {
		return nil, err
	}
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	metrics.IncArray()
	out := make([]T, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// CountE counts elements like Count, surfacing a persistent partition
// failure as an error.
func (r *RDD[T]) CountE() (int, error) {
	counts, err := runParts(r.numPartitions, func(p int) int {
		metrics.IncMethod()
		n := 0
		r.run(p, func(T) bool { n++; return true })
		return n
	}, nil)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return total, nil
}

// AggregateE folds like Aggregate, surfacing a persistent partition
// failure as an error.
func AggregateE[T, A any](r *RDD[T], zero func() A, seqOp func(A, T) A, combOp func(A, A) A) (A, error) {
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
	var out A
	if err != nil {
		return out, err
	}
	metrics.IncIDynamic()
	out = zero()
	for _, p := range partials {
		metrics.IncIDynamic()
		out = combOp(out, p)
	}
	return out, nil
}
