// Fault domain of the fork–join substrate. A panic inside a task body or a
// parallel-for chunk must never take down a pool worker, leak a helper
// goroutine, or wedge the completion barrier; it is converted into a
// *TaskError. A chunk that fails is re-run under the job's retry budget
// (zero for the plain parallel-for, the partition recompute budget for
// the RDD engine's jobs); once the budget is spent the failure becomes
// the job's (first failure wins) and the remaining chunks are cancelled
// via a per-job cancellation token checked at every chunk claim and
// before every retry. For, Join and Invoke re-panic the TaskError at the
// join point — the fork/join exception-propagation discipline; ForRetryE,
// the primitive For and the RDD engine run on, returns it as an error.
package forkjoin

import (
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"renaissance/internal/chaos"
	"renaissance/internal/metrics"
)

// TaskError wraps the first panic recovered from a parallel job's chunk or
// from a pool task (futures fail an Async body's or Map stage's future
// with one too), with the panicking goroutine's stack attached. Sibling
// chunks of the same job are cancelled at their next chunk claim; chunks
// already executing run to completion before the barrier releases, so no
// goroutine outlives the join.
type TaskError struct {
	// Index is the start index of the chunk whose body panicked, or -1 for
	// a pool task run by Invoke or Fork and for a futures body or stage.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the stack of the panicking goroutine.
	Stack []byte
}

// Error implements error.
func (e *TaskError) Error() string {
	return fmt.Sprintf("forkjoin: task panicked at index %d: %v", e.Index, e.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. a
// chaos.InjectedError), so errors.Is/As see through the wrapper.
func (e *TaskError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Backoff between the attempts of one chunk: chaos.Backoff from
// retryBackoffBase, capped, jittered from (chaos seed, chunk start,
// attempt) — reproducible under a pinned chaos seed, decorrelated across
// chunks so concurrent retries do not re-collide in lockstep.
const (
	retryBackoffBase = 100 * time.Microsecond
	retryBackoffMax  = 5 * time.Millisecond
)

// parJob is the shared state of one parallel-for invocation — the only
// claim/cancel/join implementation in the repository: the chunk-claim
// counter, the completion count, the cancellation token, the retry
// budget, and the first-failure slot. Every executor (caller and
// helpers) drains the same job; cancellation is observed at chunk-claim
// and retry granularity, never inside a running body.
type parJob struct {
	// Fixed when the job starts; read by every executor at every claim.
	n, grain int
	retries  int
	body     func(lo, hi, attempt int)
	chunks   int64
	done     chan struct{}
	_        [cacheLine - 48]byte

	// Written by every executor. Kept on a cache line of their own so a
	// claim does not evict the fields above from the other executors'
	// caches (the struct is two lines exactly, so the allocator aligns it).
	next      atomic.Int64
	completed atomic.Int64
	failure   atomic.Pointer[TaskError]
	cancelled atomic.Bool
	_         [cacheLine - 28]byte
}

// cacheLine is the assumed cache-line size.
const cacheLine = 64

// drain claims and executes chunks until the range is exhausted or the job
// is cancelled. The cancellation token is checked before every claim, so a
// failing job stops scheduling new work within one chunk per executor.
func (j *parJob) drain() {
	for {
		if j.cancelled.Load() {
			return
		}
		lo := int(j.next.Add(int64(j.grain))) - j.grain
		if lo >= j.n {
			return
		}
		// Counted per successful claim (= per chunk), not per fetch-add
		// attempt, so metric totals do not depend on scheduling timing.
		metrics.IncAtomic()
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		// The retry loop is out of line: the fault-free path is one call.
		if te := j.attempt(lo, hi, 0); te != nil {
			j.retry(lo, hi, te)
		}
		if j.completed.Add(1) == j.chunks {
			close(j.done)
			return
		}
	}
}

// retry drives a chunk whose first attempt failed with te through the
// bounded retry loop: back off and re-run the body with the next attempt
// number until it succeeds or the budget is spent, then make the last
// attempt's failure the job's and cancel the siblings. A sibling that
// failed the job first stops this loop at its next retry — the chunk is
// abandoned, not failed.
func (j *parJob) retry(lo, hi int, te *TaskError) {
	for attempt := 1; attempt <= j.retries; attempt++ {
		time.Sleep(chaos.Backoff(retryBackoffBase, retryBackoffMax, attempt, chaos.Seed(), uint64(lo)))
		if j.cancelled.Load() {
			return
		}
		if te = j.attempt(lo, hi, attempt); te == nil {
			return
		}
	}
	j.failure.CompareAndSwap(nil, te)
	j.cancel()
}

// attempt runs the body once under a recover that converts a panic —
// organic, injected at the job's own forkjoin.claim point, or a nested
// job's re-panicked *TaskError, which keeps its identity (the innermost
// failing chunk) instead of being re-wrapped at every level — into the
// attempt's *TaskError.
func (j *parJob) attempt(lo, hi, attempt int) (te *TaskError) {
	defer func() {
		if p := recover(); p != nil {
			var ok bool
			if te, ok = p.(*TaskError); !ok {
				te = &TaskError{Index: lo, Value: p, Stack: debug.Stack()}
			}
		}
	}()
	if chaos.Maybe("forkjoin.claim") {
		panic(&chaos.InjectedError{Point: "forkjoin.claim"})
	}
	j.body(lo, hi, attempt)
	return nil
}

// cancel flips the cancellation token and swallows every not-yet-claimed
// chunk through the same claim counter the executors use, so each chunk is
// accounted exactly once (executed or swallowed) and the completion
// barrier releases exactly when the last in-flight chunk finishes — no
// stuck barrier, no helper outliving the join, whichever executor fails.
func (j *parJob) cancel() {
	if j.cancelled.Swap(true) {
		return
	}
	var skipped int64
	for {
		lo := int(j.next.Add(int64(j.grain))) - j.grain
		if lo >= j.n {
			break
		}
		skipped++
	}
	if skipped > 0 && j.completed.Add(skipped) == j.chunks {
		close(j.done)
	}
}
