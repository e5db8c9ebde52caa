// Lineage-based partition recovery (DESIGN.md §14). Every action and
// shuffle phase evaluates its partitions through runParts, a thin wrapper
// that runs them as grain-1 chunks of forkjoin's retrying parallel-for —
// the one claim/cancel/join implementation in the repository. The engine
// adds only what is RDD-specific:
//
//   - Bounded recompute: the job's per-chunk retry budget is the
//     partition recompute budget (taskRetries). A partition attempt
//     that fails — an organic panic, a *forkjoin.TaskError from a nested
//     job, or an injected chaos fault — is recomputed from the partition's
//     lineage (the fused pipeline re-runs from the nearest materialized
//     ancestor: a cached partition or a published shuffle exchange). When
//     the budget is spent the final *forkjoin.TaskError surfaces from the
//     action; unclaimed siblings are cancelled, and partitions already in
//     flight run to completion before it returns.
//   - Caller-runs discipline, inherited from the job: the calling
//     goroutine claims and evaluates partitions itself while pool workers
//     help opportunistically, so a nested runParts — a shuffle exchange
//     evaluated inside a consumer partition — always makes progress even
//     when every worker is busy.
//
// Chaos points: "rdd.task" fires before every first partition attempt,
// "rdd.recompute" before every retry, and the job's own "forkjoin.claim"
// before both, so a chaos sweep exercises the failure and the recovery
// paths. The rddrecompute metric counts the retries.
package rdd

import (
	"renaissance/internal/chaos"
	"renaissance/internal/forkjoin"
	"renaissance/internal/metrics"
)

// taskRetries is the per-partition recompute budget: extra attempts after
// the first, per partition, per action.
const taskRetries = 3

// forPartsRetry evaluates body(p) for every partition p in [0, n) under
// the recompute budget, returning the final *forkjoin.TaskError of a
// partition whose budget was spent. Kernels that write shared
// per-partition state in place (naive Bayes, chi-square, logistic
// regression, the PageRank pull) call it directly: their bodies are
// idempotent — every attempt starts by clearing its accumulator row, or
// overwrites only its own range — and the job never runs two attempts of
// one partition concurrently.
func forPartsRetry(n int, body func(p int)) error {
	return forkjoin.Shared().ForRetryE(n, 1, 0, taskRetries, func(p, _, attempt int) {
		point := "rdd.task"
		if attempt > 0 {
			point = "rdd.recompute"
			metrics.IncRddRecompute()
		}
		if chaos.Maybe(point) {
			panic(&chaos.InjectedError{Point: point})
		}
		body(p)
	})
}

// runParts evaluates compute(p) for every partition p in [0, n) with
// bounded recompute, returning the values in partition order. On
// persistent failure it returns the final *forkjoin.TaskError after
// handing every slot to discard, when non-nil — the published values plus
// the zero value of each partition that never published — so a failed
// shuffle exchange can recycle its staging rows before the retry's fresh
// epoch.
func runParts[R any](n int, compute func(p int) R, discard func(R)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	metrics.Acquire().IncArray()
	out := make([]R, n)
	if err := forPartsRetry(n, func(p int) { out[p] = compute(p) }); err != nil {
		if discard != nil {
			for _, v := range out {
				discard(v)
			}
		}
		return nil, err
	}
	return out, nil
}
