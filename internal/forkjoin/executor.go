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
//     itself. Pool workers only add parallelism opportunistically: the
//     job itself is pushed onto the pool's inject queue once per helper,
//     with no task or closure around it, and the helpers no worker took
//     are taken back once the counter is drained. A For therefore
//     always makes progress even when every pool worker is blocked: a
//     worker can invoke a nested For from inside a chunk while its
//     siblings are parked on a mutex that chunk holds. With a blocking
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
// A helper is taken from the inject queue by a pool worker, or by a
// futures Await helping on its own goroutine, and drains the job like the
// caller does; a helper that arrives after the counter is drained simply
// exits.
package forkjoin

import (
	"runtime"
	"sync"

	"renaissance/internal/metrics"
)

var (
	sharedOnce sync.Once
	sharedPool *Pool
	// sharedWidth is GOMAXPROCS as the process starts: a caller that
	// narrows GOMAXPROCS for a while (testing.AllocsPerRun does) around
	// the first use does not narrow the shared pool for good.
	sharedWidth = runtime.GOMAXPROCS(0)
)

// Shared returns the process-wide pool, the only one outside tests: the
// data-parallel layers (rdd partition evaluation, shuffle
// producers/consumers, the parallel stream terminals), futures.Async
// bodies, fj-kmeans' fork–join tree and every actor System's message
// batches run on it. It is created on first use with as many workers as
// GOMAXPROCS had at process start and never closed.
func Shared() *Pool {
	sharedOnce.Do(func() {
		sharedPool = NewPool(sharedWidth)
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

	// Each helper counts as one object, so a multi-chunk job counts
	// min(par-1, chunks-1) on every run, whoever ends up running them.
	for range min(par-1, chunks-1) {
		metrics.IncObject()
		p.Inject(j)
	}

	j.drain()
	// The counter is drained, so a helper still queued could only exit:
	// take it back, so a job its caller ran alone leaves nothing queued
	// when workers had no CPU to take it (GOMAXPROCS below the width).
	p.retract(j)
	// Wait for chunks still in flight on workers.
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

// Run makes the job a pool helper: it drains the job like the caller.
func (j *parJob) Run(*Worker) { j.drain() }
