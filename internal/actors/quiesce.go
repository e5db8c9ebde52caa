// Quiescence detection over a striped in-flight counter.
//
// The previous runtime kept one global atomic.Int64: every send and every
// delivery in the whole system hammered the same cache line, which is the
// synchronization-density hot spot the actor benchmarks exist to measure.
// The counter is now striped into versioned per-worker cells:
//
//   - A send increments the sending worker's pinned cell (or a
//     goroutine-hashed cell off the scheduler); a delivery decrements the
//     delivering worker's pinned cell. Individual cells go negative —
//     only the sum is meaningful.
//   - Each cell packs a 32-bit two's-complement net count (low half) and
//     an update version (high half) into one uint64, so an update is still
//     a single fetch-add: Add(1<<32 | uint32(delta)). A low-half carry may
//     advance the version by 2 instead of 1; all that matters is that it
//     never stays unchanged across an update.
//
// A naive sum over the cells is not a consistent snapshot (counts migrate
// between cells mid-scan and can transiently sum to zero while messages are
// in flight), so AwaitQuiescence uses the classic double-collect: read all
// cells, and accept a zero sum only if a second read finds every cell's
// version unchanged — in that window no update occurred anywhere, so the
// first read was a true snapshot. Termination therefore cannot be reported
// early; the stress tests race AwaitQuiescence against the final deliveries
// to hold this.
//
// Liveness: a failed scan parks the waiter on quiesceCh. Workers signal the
// channel exactly when they run out of visible work (worker.run), which is
// the only moment the sum can have newly reached zero; a waiter that wakes
// and still finds activity re-parks. Waiters chain the token on exit so
// every concurrent AwaitQuiescence returns.
package actors

import (
	"sync/atomic"
	"unsafe"

	"renaissance/internal/metrics"
)

// maxCells bounds the stripe count.
const maxCells = 64

type quiesceCell struct {
	v atomic.Uint64
	_ [56]byte
}

// quiesceCellCount picks a power-of-two stripe count of at least the
// worker count, capped at maxCells: one cell per worker is all the
// striping needs, and a System that allocated the full maxCells would
// carry 4 KB of cells for its usual four workers.
func quiesceCellCount(workers int) int {
	n := min(workers, maxCells)
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// packDelta encodes delta for a single fetch-add on a versioned cell.
func packDelta(delta int32) uint64 {
	return (1 << 32) | uint64(uint32(delta))
}

// cellValue extracts the cell's net count.
func cellValue(v uint64) int64 { return int64(int32(uint32(v))) }

// hashedCell spreads off-scheduler senders across cells by goroutine stack
// address (distinct goroutines occupy distinct stacks; any cell is correct,
// the hash only reduces contention).
func hashedCell(mask int) int {
	var probe byte
	h := uint64(uintptr(unsafe.Pointer(&probe)))
	h ^= h >> 17
	h *= 0x9E3779B97F4A7C15
	return int((h >> 32) & uint64(mask))
}

func (s *System) incInFlightAt(cell int) {
	s.cells[cell].v.Add(packDelta(1))
}

// messageDone accounts one delivered (or dead-lettered-after-queueing)
// message on the worker's pinned cell.
func (s *System) messageDone(w *worker) {
	metrics.IncAtomic()
	s.cells[w.cell].v.Add(packDelta(-1))
}

// quiescent performs a bounded number of double-collect scans. It returns
// true only on a verified consistent zero; false means "activity observed",
// and the caller parks for the next worker-idle signal.
func (s *System) quiescent() bool {
	var vers [maxCells]uint64
	for attempt := 0; attempt < 4; attempt++ {
		var sum int64
		for i := range s.cells {
			v := s.cells[i].v.Load()
			vers[i] = v
			sum += cellValue(v)
		}
		if sum != 0 {
			return false
		}
		stable := true
		for i := range s.cells {
			if s.cells[i].v.Load() != vers[i] {
				stable = false
				break
			}
		}
		if stable {
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
		// Re-scan after registering: the final messageDone either sees
		// our registration and leaves a token, or its decrement is
		// ordered before this scan.
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
