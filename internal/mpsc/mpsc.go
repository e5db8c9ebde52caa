// Package mpsc implements a Vyukov-style intrusive multi-producer
// single-consumer queue with pooled nodes and no stub node. It is the
// mailbox primitive of the actor runtime (each actor's mailbox is one
// Queue, drained in batches by whichever pool worker holds the actor's
// scheduling slot), the inject queue of every fork–join pool (of Jobs:
// submitted tasks, parallel-for helpers, futures bodies and actors with
// mail, drained by one worker at a time under a latch), and the run
// queue of the rx event-loop Scheduler.
//
// The producer side is lock-free: an enqueue is one atomic swap of the head
// pointer plus one atomic store that links the node, into the predecessor
// or, when the queue was empty, into the consumer's tail — no CAS loop, so
// enqueue throughput does not degrade under producer contention. The
// consumer side is wait-free except for a two-instruction window: if a
// producer has swapped the head but not yet linked its node, Pop reports
// "not ready" while Empty reports "not empty"; the consumer spins or goes
// off to other work until the producer's second store lands. The consumer
// CASes only when it takes the last node: it detaches the node by swinging
// the head back to nil, and if a producer swapped in behind the node first,
// it leaves the node in place and reports "not ready" the same way.
//
// An empty queue holds no node, so embedding a Queue costs its three words
// and nothing else: there is no stub to allocate per queue and none
// stranded when the queue dies.
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

// node is one pooled queue link. A node's next is nil and its value zero
// whenever it is in the pool (put clears both, and a Put synchronizes
// before the Get that returns the node), so Push publishes a node without
// storing nil into it first.
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

func (pl *Pool[T]) get() *node[T] { return pl.p.Get().(*node[T]) }

// put returns a popped node to the pool, cleared so that it pins no value.
func (pl *Pool[T]) put(n *node[T]) {
	var zero T
	n.val = zero
	n.next.Store(nil)
	pl.p.Put(n)
}

// A Queue is an intrusive MPSC queue. Push and Empty may be called from any
// goroutine; Pop only by the single consumer. The zero Queue is empty but
// has no pool: call Init (or New) first.
//
// A Queue is three words with no padding: head (producers) and tail (the
// consumer) share a cache line. Actors embed their mailbox, and
// spawn-heavy workloads allocate one per actor, so a pad between the two
// ends would double the actor's size.
type Queue[T any] struct {
	// head is the producer end, the newest node; nil means empty.
	// Producers swap themselves in; the consumer CASes it back to nil
	// when it takes the last node.
	head atomic.Pointer[node[T]]
	// tail is the consumer end, the oldest node. It is nil when the queue
	// is empty and while the first push into an empty queue is in flight;
	// that push stores it, every other write is the consumer's.
	tail atomic.Pointer[node[T]]
	pool *Pool[T]
}

// New returns an initialized queue drawing nodes from pool.
func New[T any](pool *Pool[T]) *Queue[T] {
	q := &Queue[T]{}
	q.Init(pool)
	return q
}

// Init sets the pool an embedded queue draws its nodes from. It must
// complete before any Push or Pop.
func (q *Queue[T]) Init(pool *Pool[T]) {
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
	if prev == nil {
		q.tail.Store(n)
	} else {
		prev.next.Store(n)
	}
}

// Pop dequeues the oldest value. It returns ok == false either when the
// queue is empty or when the oldest push is still in flight (swapped but
// not linked); callers distinguish the two with Empty.
func (q *Queue[T]) Pop() (T, bool) {
	var zero T
	t := q.tail.Load()
	if t == nil {
		return zero, false // empty, or the first push is in flight
	}
	v := t.val
	if next := t.next.Load(); next != nil {
		q.tail.Store(next)
		q.pool.put(t)
		return v, true
	}
	// t is the last linked node. Clear tail before the CAS: once head is
	// nil, the next push stores tail itself.
	q.tail.Store(nil)
	if q.head.CompareAndSwap(t, nil) {
		q.pool.put(t)
		return v, true
	}
	// A producer swapped in behind t and is about to link itself to it.
	q.tail.Store(t)
	return zero, false
}

// Peek returns the oldest value without dequeuing it (consumer only). It
// reports false while the queue is empty or its first push is linking;
// Pop may still report not-ready for the value Peek returned, while a
// push behind that last node links.
func (q *Queue[T]) Peek() (T, bool) {
	if t := q.tail.Load(); t != nil {
		return t.val, true
	}
	var zero T
	return zero, false
}

// Empty reports whether the queue holds no values (in-flight pushes count
// as present). From goroutines other than the consumer the answer is a
// snapshot that may go stale immediately; the pool uses it only as a
// parking hint, re-verified by the wakeup protocol.
func (q *Queue[T]) Empty() bool {
	return q.head.Load() == nil
}
