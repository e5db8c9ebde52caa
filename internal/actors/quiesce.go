// Quiescence detection over a striped in-flight counter.
//
// The previous runtime kept one global atomic.Int64: every send and every
// delivery in the whole system hammered the same cache line, which is the
// synchronization-density hot spot the actor benchmarks exist to measure.
// The counter is now striped into versioned cells, one per pool worker:
//
//   - A send increments the sending worker's cell (or a goroutine-hashed
//     cell off the pool); a delivery decrements the delivering worker's
//     cell (or a hashed one, for a batch run off the pool). Individual
//     cells go negative — only the sum is meaningful.
//   - Each cell packs a 32-bit two's-complement net count (low half) and
//     an update version (high half) into one uint64, so an update is still
//     a single fetch-add: Add(1<<32 | uint32(delta)). A low-half carry may
//     advance the version by 2 instead of 1; all that matters is that it
//     never stays unchanged across an update.
//
// A naive sum over the cells is not a consistent snapshot (counts migrate
// between cells mid-scan and can transiently sum to zero while messages are
// in flight), so AwaitQuiescence uses the classic double-collect: read all
// cells, and accept a zero sum only if a second read finds the versions
// unchanged — in that window no update occurred anywhere, so the first
// read was a true snapshot. Termination therefore cannot be reported
// early; the stress tests race AwaitQuiescence against the final deliveries
// to hold this.
//
// Liveness: a failed scan parks the waiter on quiesceCh. Every actor batch
// that ends with a waiter registered takes a naive sum of the cells, one
// per pool worker, and a zero sum leaves a token (Ref.Run). Only this
// System's batches decrement its cells, so the batch holding the final
// decrement is the last to write any of them before the System goes
// quiet; the cells are sequentially consistent atomics, so that batch's
// sum reads exactly zero. Either its load of the waiter count sees the
// registration and it leaves a token, or the load came first, and then so
// did the final decrement, which the waiter's own scan, made after it
// registered, sees. A waiter that wakes to a transient zero re-scans and
// re-parks. Waiters chain the token on exit so every concurrent
// AwaitQuiescence returns. The rule asks nothing of the worker's deque:
// the pool is shared, so a batch whose Receive sent to another System's
// actor leaves that actor on the deque, and "the deque is empty" says
// nothing about this System's mail.
package actors

import (
	"sync/atomic"
	"unsafe"

	"renaissance/internal/forkjoin"
	"renaissance/internal/metrics"
)

// A lane is one pool worker's share of a System, one cache line: its
// in-flight cell and the Context its deliveries reuse. Only that worker
// writes the Context; off-pool senders and batches hash onto any lane's
// cell.
type lane struct {
	cell atomic.Uint64
	ctx  Context
	_    [64 - 8 - 4*8]byte // the Context is four words
}

// packDelta encodes delta for a single fetch-add on a versioned cell.
func packDelta(delta int32) uint64 {
	return (1 << 32) | uint64(uint32(delta))
}

// cellValue extracts the cell's net count.
func cellValue(v uint64) int64 { return int64(int32(uint32(v))) }

// cell returns the in-flight cell that a send or delivery on worker w
// counts in: w's lane's or, off the pool (w nil), a lane's picked by the
// goroutine's stack address (distinct goroutines occupy distinct stacks;
// any cell is correct, the hash only reduces contention).
func (s *System) cell(w *forkjoin.Worker) *atomic.Uint64 {
	if w != nil {
		return &s.lanes[w.Index()].cell
	}
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe)))
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15
	return &s.lanes[(h>>32)%uint64(len(s.lanes))].cell
}

// messageDone accounts one delivered (or dead-lettered-after-queueing)
// message in the delivering worker's lane.
func (s *System) messageDone(ctx *Context) {
	metrics.IncAtomic()
	s.cell(ctx.w).Add(packDelta(-1))
}

// inFlightZero reports whether one naive pass over the cells sums to zero.
func (s *System) inFlightZero() bool {
	var sum int64
	for i := range s.lanes {
		sum += cellValue(s.lanes[i].cell.Load())
	}
	return sum == 0
}

// quiescent performs a bounded number of double-collect scans. It returns
// true only on a verified consistent zero; false means "activity observed",
// and the caller parks for the next batch's signal. The versions are
// compared by their sum: each only grows, so an equal sum means no cell
// changed.
func (s *System) quiescent() bool {
	for attempt := 0; attempt < 4; attempt++ {
		var sum int64
		var vers uint64
		for i := range s.lanes {
			v := s.lanes[i].cell.Load()
			sum += cellValue(v)
			vers += v >> 32
		}
		if sum != 0 {
			return false
		}
		var again uint64
		for i := range s.lanes {
			again += s.lanes[i].cell.Load() >> 32
		}
		if again == vers {
			return true
		}
	}
	return false
}

// AwaitQuiescence blocks until no messages are in flight. It is the
// termination-detection mechanism used by tree-computation workloads such
// as akka-uct. Quiescence is momentary: new sends may start the instant it
// returns. It is meaningful only while the system is running; after
// Shutdown it returns immediately.
func (s *System) AwaitQuiescence() {
	metrics.IncAtomic()
	if s.quiescent() {
		return
	}
	s.waiters.Add(1)
	for {
		// Re-scan after registering: the batch holding the final
		// decrement either sees our registration and leaves a token, or
		// its decrement is ordered before this scan.
		if s.quiescent() {
			break
		}
		metrics.IncPark()
		<-s.quiesceCh
	}
	s.waiters.Add(-1)
	// Chain the wakeup so no sibling waiter sleeps through the token we
	// may have consumed.
	if s.waiters.Load() > 0 {
		select {
		case s.quiesceCh <- struct{}{}:
		default:
		}
	}
}
