// Lineage-based partition recovery (DESIGN.md §14). Every parallel loop
// in the package — the kernels' passes and the engine's partition jobs —
// runs through forRetry, a thin wrapper over forkjoin's retrying
// parallel-for, the one claim/cancel/join implementation in the
// repository. The wrapper adds only what is RDD-specific:
//
//   - Bounded recompute: the job's per-chunk retry budget is the
//     partition recompute budget (taskRetries). A chunk attempt that
//     fails — an organic panic, a *forkjoin.TaskError from a nested job,
//     or an injected chaos fault — is recomputed from the chunk's lineage
//     (a kernel chunk rewrites its own rows; an engine partition re-reads
//     its materialized parent partition). When the budget is spent the
//     final *forkjoin.TaskError is returned; unclaimed siblings are
//     cancelled, and chunks already in flight run to completion first.
//   - Caller-runs discipline, inherited from the job: the calling
//     goroutine claims and evaluates chunks itself while pool workers
//     help opportunistically, so a job nested inside a chunk always makes
//     progress even when every worker is busy.
//
// Chaos points: "rdd.task" fires before every first chunk attempt,
// "rdd.recompute" before every retry, and the job's own "forkjoin.claim"
// before both, so a chaos sweep exercises the failure and the recovery
// paths. The rddrecompute metric counts the retries.
package rdd

import (
	"renaissance/internal/chaos"
	"renaissance/internal/forkjoin"
	"renaissance/internal/metrics"
)

// taskRetries is the per-chunk recompute budget: four attempts a chunk
// per pass in all, Spark's default spark.task.maxFailures.
const taskRetries = 3

// forRetry runs body(lo, hi) over chunks of [0, n) of forkjoin's grain (1:
// a chunk per index, 0: automatic) on the shared pool under the recompute
// budget, returning the final *forkjoin.TaskError of a chunk that spent
// it. body must be idempotent per chunk — an attempt clears its own
// accumulator first, or overwrites only its own range or slot; the job
// never runs two attempts of one chunk concurrently.
func forRetry(n, grain int, body func(lo, hi int)) error {
	return forkjoin.Shared().ForRetryE(n, grain, 0, taskRetries, func(lo, hi, attempt int) {
		point := "rdd.task"
		if attempt > 0 {
			point = "rdd.recompute"
			metrics.IncRddRecompute()
		}
		if chaos.Maybe(point) {
			panic(&chaos.InjectedError{Point: point})
		}
		body(lo, hi)
	})
}

// runParts evaluates compute(p) for every partition p in [0, n) with
// bounded recompute and returns the values in partition order. A
// partition that spends its budget re-panics its *forkjoin.TaskError
// here, at the join.
func runParts[R any](n int, compute func(p int) R) []R {
	metrics.IncArray()
	out := make([]R, n)
	if err := forRetry(n, 1, func(p, _ int) { out[p] = compute(p) }); err != nil {
		panic(err)
	}
	return out
}
