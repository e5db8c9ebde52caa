// Shared data-parallel executor. The RDD engine and the parallel stream
// terminals used to fan out one unbounded goroutine per partition (or per
// element); now every partition-shaped workload runs on one process-wide
// fork–join pool through a chunked parallel-for.
//
// For splits [0, n) into chunks and lets executors claim chunks from a
// single atomic counter (guided self-scheduling, the classic parallel-for
// discipline). Three properties matter here:
//
//   - Caller-runs: the calling goroutine claims and executes chunks
//     itself. Pool workers only add parallelism opportunistically, via
//     helper tasks enqueued with a non-blocking submit. A For therefore
//     always makes progress even when every pool worker is blocked —
//     which genuinely happens in this engine: shuffles execute *inside*
//     partition tasks (a wide RDD's partitions all call into a
//     mutex-guarded shuffle exchange), so a worker can invoke a nested
//     For while its siblings are parked on the mutex. With a blocking
//     barrier-style fan-out that is a deadlock; with caller-runs the
//     nested For drains its own counter and completes.
//   - Bounded parallelism: only the pool's workers and the caller ever
//     execute chunks, however large n is — replacing the
//     goroutine-per-partition fan-out whose cost the Task Bench results
//     flag as the dominant overhead at task granularity.
//   - Chunked granularity: grain 0 picks n/(par·4) so stealing has
//     something to balance without per-element scheduling overhead;
//     partition-shaped callers pass grain 1 because each index is already
//     a coarse task.
//
// Helper tasks land on the pool's submission queue and are executed (or
// stolen) by the Chase–Lev workers like any fork–join task; a helper that
// arrives after the counter is drained simply exits.
package forkjoin

import (
	"sync"

	"renaissance/internal/metrics"
)

var (
	sharedOnce sync.Once
	sharedPool *Pool
)

// Shared returns the process-wide pool used by the data-parallel layers
// (rdd partition evaluation, shuffle producers/consumers, the parallel
// stream terminals). It is created on first use with GOMAXPROCS workers
// and never closed.
func Shared() *Pool {
	sharedOnce.Do(func() {
		sharedPool = NewPool(0)
	})
	return sharedPool
}

// chunksPerExecutor is the load-balancing factor of the automatic grain:
// enough chunks per executor that an uneven body still spreads, few
// enough that claim traffic stays negligible.
const chunksPerExecutor = 4

// For runs body over chunked subranges of [0, n) on the shared pool, with
// the calling goroutine participating. It returns when every index has
// been processed exactly once. grain <= 0 picks an automatic chunk size
// of n/(par·chunksPerExecutor), at least 1.
//
// A panic in body cancels the job's remaining chunks and is re-panicked
// here, at the join point, as a *TaskError — the fork/join
// exception-propagation contract every parallel entry point shares.
func For(n, grain int, body func(lo, hi int)) {
	if err := Shared().ForRetryE(n, grain, 0, 0, func(lo, hi, _ int) { body(lo, hi) }); err != nil {
		panic(err)
	}
}

// ForRetryE is the parallel-for job every data-parallel layer runs on:
// body(lo, hi, attempt) over chunked subranges of [0, n), the caller
// participating, at most maxPar executors counting the caller (maxPar <= 0
// means the pool's full width plus the caller). A chunk whose
// body panics is re-run — same range, attempt counting up from 0, a
// seeded-jitter backoff in between — up to retries extra times, so body
// must be idempotent per chunk when retries > 0. When a chunk's budget is
// spent its last failure is returned as a *TaskError and the siblings are
// cancelled via the job's cancellation token (checked at every chunk
// claim and before every retry); chunks already executing finish before
// ForRetryE returns, so no helper goroutine outlives the call and the
// barrier can never be left stuck. It is the one error-returning
// primitive: the RDD engine recycles a failed shuffle's staging before
// the failure re-panics.
func (p *Pool) ForRetryE(n, grain, maxPar, retries int, body func(lo, hi, attempt int)) error {
	if n <= 0 {
		return nil
	}
	par := len(p.workers) + 1 // workers plus the calling goroutine
	if maxPar > 0 && maxPar < par {
		par = maxPar
	}
	if grain <= 0 {
		grain = n / (par * chunksPerExecutor)
		if grain < 1 {
			grain = 1
		}
	}
	chunks := (n + grain - 1) / grain
	j := &parJob{n: n, grain: grain, retries: retries, body: body, chunks: int64(chunks)}
	if chunks == 1 {
		// Pre-claim the single chunk so a failure's cancel sweep finds
		// nothing left to swallow (there is no barrier to release).
		j.next.Store(int64(n))
		if te := j.attempt(0, n, 0); te != nil {
			j.retry(0, n, te)
		}
		if te := j.failure.Load(); te != nil {
			return te
		}
		return nil
	}
	j.done = make(chan struct{})

	helpers := par - 1
	if helpers > chunks-1 {
		helpers = chunks - 1
	}
	for i := 0; i < helpers; i++ {
		if !p.trySubmit(func(w *Worker) any {
			j.drain()
			return nil
		}) {
			break // queue full; the caller still finishes
		}
	}

	j.drain()
	// The counter is drained; wait for chunks still in flight on workers.
	metrics.IncPark()
	<-j.done
	// The barrier release is counted by the caller, not by whichever
	// drain closed the channel: a helper bumping after close would race
	// the caller's return and could land in a later measurement window.
	metrics.IncNotify()
	if te := j.failure.Load(); te != nil {
		return te
	}
	return nil
}

// trySubmit enqueues a task without ever blocking: a full submission
// queue drops the task. Used for the optional For helpers, which are pure
// parallelism hints — correctness never depends on them running. Helper
// tasks are completion-quiet: nobody joins them, and a helper finishing
// after its For has returned must not leak completion bumps into a later
// measurement window. Only an enqueued helper counts as an allocated
// object, so the count does not depend on queue-full timing.
func (p *Pool) trySubmit(fn Fn) bool {
	t := &Task{fn: fn, quiet: true}
	select {
	case p.submit <- t:
		metrics.IncObject()
		p.wakeOne()
		return true
	default:
		return false
	}
}
