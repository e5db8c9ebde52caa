// Package mpsc implements a Vyukov-style intrusive multi-producer
// single-consumer queue with pooled nodes. It is the mailbox primitive of
// the actor runtime (each actor's mailbox is one Queue, drained in batches
// by whichever scheduler worker holds the actor's scheduling slot) and the
// run queue of the rx event-loop Scheduler.
//
// The producer side is lock-free: an enqueue is one atomic swap of the head
// pointer plus one atomic store to link the predecessor — no CAS loop, so
// enqueue throughput does not degrade under producer contention. The
// consumer side is wait-free except for a two-instruction window: if a
// producer has swapped the head but not yet linked its node, Pop reports
// "not ready" while Empty reports "not empty"; the consumer spins or goes
// off to other work until the producer's second store lands.
//
// Nodes are pooled. A Pool is shared across the queues of one subsystem
// (e.g. every mailbox of every actor System draws from one Pool), so a
// flooded-then-drained mailbox releases its buffers back for reuse instead
// of retaining them — the failure mode of the previous mutex mailbox, whose
// `queue = queue[1:]` drain pinned the slice head under flooding.
package mpsc

import (
	"sync"
	"sync/atomic"
)

// node is one pooled queue link. The value is cleared on dequeue so a
// drained queue retains no references through its stub node. A node's
// next is nil whenever it is in the pool (Pop clears it before the Put, and
// a Put synchronizes before the Get that returns the node), so Push and
// Init publish a node without storing nil into it first.
type node[T any] struct {
	next atomic.Pointer[node[T]]
	val  T
}

// A Pool recycles queue nodes across all queues initialized with it.
type Pool[T any] struct {
	p sync.Pool
}

// NewPool creates a node pool. One pool per subsystem: sharing maximizes
// reuse across queues with bursty, alternating load.
func NewPool[T any]() *Pool[T] {
	pl := &Pool[T]{}
	pl.p.New = func() any { return new(node[T]) }
	return pl
}

func (pl *Pool[T]) get() *node[T]  { return pl.p.Get().(*node[T]) }
func (pl *Pool[T]) put(n *node[T]) { pl.p.Put(n) }

// A Queue is an intrusive MPSC queue. Push and Empty may be called from any
// goroutine; Pop only by the single consumer. The zero Queue is not usable:
// call Init (or New) first.
//
// A Queue is three words with no padding: head (producers) and tail (the
// consumer) share a cache line. Actors embed their mailbox, and
// spawn-heavy workloads allocate one per actor, so a pad between the two
// ends would double the actor's size.
type Queue[T any] struct {
	// head is the producer end: producers swap themselves in.
	head atomic.Pointer[node[T]]
	// tail is the consumer end: it always points at the current stub node,
	// whose successors hold the queued values. Written only by the
	// consumer; read atomically by Empty probes from other goroutines.
	tail atomic.Pointer[node[T]]
	pool *Pool[T]
}

// New returns an initialized queue drawing nodes from pool.
func New[T any](pool *Pool[T]) *Queue[T] {
	q := &Queue[T]{}
	q.Init(pool)
	return q
}

// Init prepares an embedded queue for use. It must complete before any
// Push or Pop.
func (q *Queue[T]) Init(pool *Pool[T]) {
	stub := pool.get()
	q.head.Store(stub)
	q.tail.Store(stub)
	q.pool = pool
}

// Push enqueues v. Safe from any goroutine; lock-free (one swap, one
// store, no retry loop).
func (q *Queue[T]) Push(v T) {
	n := q.pool.get() // next is nil: see node
	n.val = v
	prev := q.head.Swap(n)
	// Between the swap and this store the queue is "in flight": the node
	// is owned by the queue but not yet reachable from tail. Pop reports
	// not-ready and Empty reports non-empty until the store lands.
	prev.next.Store(n)
}

// Pop dequeues the oldest value. It returns ok == false either when the
// queue is empty or when the oldest push is still in flight (swapped but
// not linked); callers distinguish the two with Empty.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	tail := q.tail.Load()
	next := tail.next.Load()
	if next == nil {
		return zero, false
	}
	v := next.val
	next.val = zero // next becomes the new stub; drop its value reference
	q.tail.Store(next)
	tail.next.Store(nil)
	q.pool.put(tail)
	return v, true
}

// Empty reports whether the queue holds no values (in-flight pushes count
// as present). From goroutines other than the consumer the answer is a
// snapshot that may go stale immediately; the scheduler uses it only as a
// parking hint, re-verified by the wakeup protocol.
func (q *Queue[T]) Empty() bool {
	return q.tail.Load() == q.head.Load()
}
