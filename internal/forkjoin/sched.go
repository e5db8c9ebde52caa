// The scheduling core every work-stealing runtime in the repository runs
// on: the fork–join Pool (whose inject queue also carries parallel-for
// helpers and futures bodies) and the actor System. Each worker owns a
// Chase–Lev deque; work that arrives off the workers goes on one
// lock-free inject queue, an mpsc.Queue drained under a single-consumer
// latch; and a worker that finds nothing parks with the
// idle-count-then-recheck protocol, so an idle runtime burns no CPU and
// no wakeup is lost.
package forkjoin

import (
	"sync/atomic"

	"renaissance/internal/chaos"
	"renaissance/internal/mpsc"
)

// Sched is the shared state of one runtime's workers: their deques (of
// *E), its inject queue (of T) and its park protocol. Init it before the
// workers start.
type Sched[T comparable, E any] struct {
	deques []*Deque[E]
	inject mpsc.Queue[T]
	latch  atomic.Bool // single-consumer latch for draining inject
	idle   atomic.Int64
	// wake holds up to one token per worker: more could only wake a
	// worker that is not parked.
	wake chan struct{}
}

// Init sets the workers' deques and the node pool the inject queue draws
// from.
func (s *Sched[T, E]) Init(deques []*Deque[E], pool *mpsc.Pool[T]) {
	s.deques = deques
	s.inject.Init(pool)
	s.wake = make(chan struct{}, len(deques))
}

// Push puts v on the inject queue and wakes a parked worker for it.
func (s *Sched[T, E]) Push(v T) {
	s.inject.Push(v)
	s.Signal()
}

// Poll takes up to max elements off the inject queue: it returns the
// first and hands the rest to spill, in order, waking a peer for the
// surplus. n is how many it took. n == 0 means the queue was empty, a
// push was still linking, or another consumer held the latch; callers
// that must tell those apart check Empty.
func (s *Sched[T, E]) Poll(max int, spill func(T)) (first T, n int) {
	if s.inject.Empty() || !s.latch.CompareAndSwap(false, true) {
		return first, 0
	}
	for n < max {
		v, ok := s.inject.Pop()
		if !ok {
			break // empty, or a producer is mid-link; don't spin latched
		}
		if n == 0 {
			first = v
		} else {
			spill(v)
		}
		n++
	}
	s.latch.Store(false)
	if n > 1 {
		s.Signal() // the surplus is stealable
	}
	return first, n
}

// Retract pops the inject queue's oldest elements while they are v, so a
// producer can take back what no worker picked up in time. It gives up
// when another consumer holds the latch.
func (s *Sched[T, E]) Retract(v T) {
	if s.inject.Empty() || !s.latch.CompareAndSwap(false, true) {
		return
	}
	for {
		if head, ok := s.inject.Peek(); !ok || head != v {
			break
		}
		if _, ok := s.inject.Pop(); !ok {
			break
		}
	}
	s.latch.Store(false)
}

// Empty reports whether the inject queue holds nothing, counting a push
// that is still linking as something.
func (s *Sched[T, E]) Empty() bool { return s.inject.Empty() }

// Steal takes the oldest element of another worker's deque, scanning
// from a start that seq picks (distinct per worker and call); self, the
// caller's own deque, is skipped.
func (s *Sched[T, E]) Steal(self *Deque[E], seq uint64) *E {
	n := len(s.deques)
	start := int(chaos.Mix64(seq) % uint64(n))
	for i := range n {
		if d := s.deques[(start+i)%n]; d != self {
			if e := d.Steal(); e != nil {
				return e
			}
		}
	}
	return nil
}

// Park blocks the calling worker until a Signal or until done is closed,
// and reports whether it slept. It first advertises idleness, then
// re-checks every queue: a producer either sees the idle count and leaves
// a wake token, or made its work visible before the count went up and the
// re-check finds it.
func (s *Sched[T, E]) Park(done <-chan struct{}) bool {
	s.idle.Add(1)
	defer s.idle.Add(-1)
	if s.anyWork() {
		return false
	}
	select {
	case <-s.wake:
	case <-done:
	}
	return true
}

func (s *Sched[T, E]) anyWork() bool {
	if !s.inject.Empty() {
		return true
	}
	for _, d := range s.deques {
		if d.Size() > 0 {
			return true
		}
	}
	return false
}

// Signal wakes one parked worker, if any. Producers call it after making
// their work visible, which pairs with Park's re-check.
func (s *Sched[T, E]) Signal() {
	if s.idle.Load() > 0 {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}
