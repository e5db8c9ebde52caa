// Scheduler workers. Each worker owns a Chase–Lev deque of runnable actors
// (mailboxes whose idle→scheduled CAS it or a peer won). The search order is
// the classic work-stealing discipline: own deque (LIFO, locality), then a
// batch from the global inject queue, then stealing FIFO from a random
// victim. A worker that finds nothing parks on the wakeup channel; every
// enqueue signals at most one parked worker, so an idle system burns no CPU
// (the previous runtime's single global channel made every send a
// futex-guarded handoff instead).
package actors

import (
	"renaissance/internal/chaos"
	"renaissance/internal/forkjoin"
	"renaissance/internal/metrics"
)

type worker struct {
	sys  *System
	cell int // pinned in-flight stripe, see quiesce.go
	dq   forkjoin.Deque[Ref]
	seq  uint64  // steal-start counter, distinct per worker
	ctx  Context // reused across deliveries; valid only inside Receive
}

// injectBatch bounds how many runnable actors one worker transfers from the
// inject queue to its own deque per poll: enough to amortize the consumer
// latch, few enough that peers find surplus to steal.
const injectBatch = 16

func (w *worker) run() {
	s := w.sys
	defer s.wg.Done()
	for {
		if r := w.findRunnable(); r != nil {
			r.processBatch(w)
			continue
		}
		// Nothing visible anywhere. If a quiescence waiter is parked, this
		// is exactly the moment the in-flight sum may have reached zero —
		// signal it before parking (see quiesce.go for the protocol).
		if s.waiters.Load() > 0 {
			select {
			case s.quiesceCh <- struct{}{}:
				metrics.IncNotify()
			default:
			}
		}
		select {
		case <-s.done:
			return // shut down and fully drained
		default:
		}
		// Park protocol: advertise idleness, then re-verify emptiness.
		// A producer either sees idle > 0 and leaves a wake token, or
		// enqueued before our advertisement and the recheck finds it.
		s.idle.Add(1)
		if s.anyWork() {
			s.idle.Add(-1)
			continue
		}
		metrics.IncPark()
		select {
		case <-s.wake:
		case <-s.done:
		}
		s.idle.Add(-1)
	}
}

// findRunnable implements the three-level work search.
func (w *worker) findRunnable() *Ref {
	if r := w.dq.Pop(); r != nil {
		return r
	}
	if r := w.pollInject(); r != nil {
		return r
	}
	return w.steal()
}

// pollInject moves up to injectBatch runnable actors from the global inject
// queue into this worker's deque, returning the first. The queue is MPSC,
// so a single-consumer latch guards the drain; a worker that loses the
// latch moves on to stealing (the latch holder's surplus lands in a
// stealable deque within a few instructions).
func (s *System) pollInject(w *worker) *Ref {
	if s.inject.Empty() {
		return nil
	}
	if !s.latch.CompareAndSwap(false, true) {
		return nil
	}
	var first *Ref
	moved := 0
	for moved < injectBatch {
		r, ok := s.inject.Pop()
		if !ok {
			break // empty, or a producer is mid-link; don't spin latched
		}
		if first == nil {
			first = r
		} else {
			w.dq.Push(r)
		}
		moved++
	}
	s.latch.Store(false)
	if moved > 1 {
		s.signal() // surplus is stealable; wake a peer for it
	}
	return first
}

func (w *worker) pollInject() *Ref { return w.sys.pollInject(w) }

// steal scans the other workers' deques from a random start, taking the
// oldest runnable actor from the first non-empty one.
func (w *worker) steal() *Ref {
	workers := w.sys.workers
	n := len(workers)
	if n < 2 {
		return nil
	}
	w.seq++
	start := int(chaos.Mix64(w.seq) % uint64(n))
	for i := 0; i < n; i++ {
		victim := workers[(start+i)%n]
		if victim == w {
			continue
		}
		if r := victim.dq.Steal(); r != nil {
			w.sys.Steals.Add(1)
			metrics.IncAtomic() // steal → atomic (a real scheduling event)
			return r
		}
	}
	return nil
}

// anyWork probes every queue a parked worker could be woken for. Called
// only on the park slow path.
func (s *System) anyWork() bool {
	if !s.inject.Empty() {
		return true
	}
	for _, w := range s.workers {
		if w.dq.Size() > 0 {
			return true
		}
	}
	return false
}

// signal wakes one parked worker, if any. Producers call it after making
// their work visible, which pairs with the idle-then-recheck park protocol
// to exclude lost wakeups.
func (s *System) signal() {
	if s.idle.Load() > 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}
