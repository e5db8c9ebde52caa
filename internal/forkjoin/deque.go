// Chase–Lev lock-free work-stealing deque (Chase & Lev, SPAA 2005; memory
// ordering per Lê et al., PPoPP 2013, conservatively realized with Go's
// sequentially consistent atomics). The owner pushes and pops at the bottom
// without locking; thieves steal from the top with a single CAS. This
// replaces the earlier mutex-guarded slice deque, whose steal path shifted
// the slice head (`tasks = tasks[1:]`) and thereby pinned every stolen task
// in the backing array until the next reallocation.
//
// The deque's element is a Slot, the intrusive link every job a worker can
// run embeds: a forked *Task, and an actor's mailbox (an actors.Ref, whose
// message batch is a pool job). It is the only per-worker run queue in the
// repository.
package forkjoin

import (
	"sync/atomic"

	"renaissance/internal/chaos"
)

// ring is a power-of-two circular array of cells, each holding a *Slot.
// Cells are accessed atomically because a thief may read a cell while the
// owner writes a neighbouring index; an index i lives at cells[i&mask].
type ring struct {
	mask  int64
	cells []atomic.Pointer[Slot]
}

func newRing(capacity int64) *ring {
	return &ring{mask: capacity - 1, cells: make([]atomic.Pointer[Slot], capacity)}
}

func (r *ring) cap() int64           { return r.mask + 1 }
func (r *ring) get(i int64) *Slot    { return r.cells[i&r.mask].Load() }
func (r *ring) put(i int64, s *Slot) { r.cells[i&r.mask].Store(s) }

// grow returns a ring of twice the capacity holding the entries [top,
// bottom). The old ring's cells are left intact: a thief racing with the
// growth may still read index `top` from the old ring, and both rings hold
// the same element there.
func (r *ring) grow(top, bottom int64) *ring {
	nr := newRing(2 * r.cap())
	for i := top; i < bottom; i++ {
		nr.put(i, r.get(i))
	}
	return nr
}

const initialDequeCap = 64

// A Slot is a deque element: the job it runs, set once before the first
// push. A job embeds its slot, so a push allocates nothing; a job is in at
// most one deque at a time (a Task is pushed once, an actor only while it
// is scheduled).
type Slot struct{ job Job }

// NewSlot returns the slot of job j, to be embedded in j.
func NewSlot(j Job) Slot { return Slot{job: j} }

// deque is a per-worker work-stealing deque of slots. The zero value is
// ready to use. push and pop may only be called by the owning worker;
// steal and size may be called from any goroutine. top and bottom sit on
// separate cache lines so that thieves hammering top do not invalidate
// the owner's line.
type deque struct {
	bottom atomic.Int64
	_      [56]byte
	top    atomic.Int64
	_      [56]byte
	arr    atomic.Pointer[ring]
	// ownerTop is the owner's cached lower bound of top (top is
	// monotone), refreshed only when the ring looks full: the common push
	// does not read the thief-contended top line at all.
	ownerTop int64
}

// push appends a slot at the bottom (owner only).
func (d *deque) push(s *Slot) {
	b := d.bottom.Load()
	a := d.arr.Load()
	if a == nil {
		a = newRing(initialDequeCap)
		d.arr.Store(a)
	}
	if b-d.ownerTop >= a.cap() {
		d.ownerTop = d.top.Load()
		if b-d.ownerTop >= a.cap() {
			a = a.grow(d.ownerTop, b)
			d.arr.Store(a)
		}
	}
	a.put(b, s)
	d.bottom.Store(b + 1)
}

// pop removes and returns the most recently pushed slot (owner only), or
// nil if the deque is empty or the last slot was lost to a racing thief.
// Ring cells the owner wins are cleared so the popped job is not pinned by
// the ring.
func (d *deque) pop() *Slot {
	a := d.arr.Load()
	if a == nil {
		return nil
	}
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore the canonical empty state (bottom == top).
		d.bottom.Store(t)
		return nil
	}
	s := a.get(b)
	if t == b {
		// Last element: race thieves for it with a CAS on top.
		if !d.top.CompareAndSwap(t, t+1) {
			s = nil // a thief got there first
		}
		d.bottom.Store(t + 1)
		if s != nil {
			a.put(b, nil)
		}
		return s
	}
	// t < b: thieves can no longer reach index b (any thief that reads
	// top == b must then read bottom == b and give up), so the owner owns
	// the cell outright and may clear it.
	a.put(b, nil)
	return s
}

// steal removes and returns the oldest slot, or nil if the deque is empty
// or the CAS lost a race (the caller moves on to the next victim). The won
// ring cell is not cleared — only the owner may write cells, so a stolen
// slot's reference persists in the ring until that index is reused; the
// ring's size is bounded, unlike the slice-shift steal this replaces.
func (d *deque) steal() *Slot {
	// Chaos: a missed steal is indistinguishable from losing the CAS race,
	// so injecting one exercises every caller's retry/park path without
	// breaking the deque's invariants.
	if chaos.Maybe("forkjoin.steal") {
		return nil
	}
	t := d.top.Load()
	b := d.bottom.Load()
	if t >= b {
		return nil
	}
	a := d.arr.Load()
	if a == nil {
		return nil
	}
	s := a.get(t)
	if !d.top.CompareAndSwap(t, t+1) {
		return nil
	}
	return s
}

// size returns an approximate slot count. It is exact when no push, pop,
// or steal is concurrently in flight; concurrent callers (parking workers
// probing for work) may see a stale but never a wildly wrong value.
func (d *deque) size() int64 {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return n
}
