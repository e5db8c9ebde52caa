// Package actors implements a message-passing actor runtime in the style of
// Akka and the Reactors framework, used by the akka-uct and reactors
// benchmarks (Table 1: "actors, message-passing"). Actors own a mailbox,
// process one message at a time, and are multiplexed over the workers of a
// fork–join pool, as Akka's default dispatcher runs on a ForkJoinPool.
//
// The runtime is lock-free on the per-message hot path:
//
//   - Each mailbox is a Vyukov-style intrusive MPSC queue (internal/mpsc)
//     with pooled envelope nodes and no stub: a send is one atomic swap
//     plus one atomic link store, and the consuming worker drains a batch
//     without taking a lock per message, with one CAS when it takes the
//     last queued message.
//   - An actor with mail is a forkjoin.Job: its message batch runs on a
//     worker of the System's private forkjoin.Pool. A send from inside a
//     Receive pushes the receiver onto the sending worker's own deque; a
//     send from outside, a fairness requeue and a restart after backoff
//     go on the pool's inject queue. The runtime has no worker loop, run
//     queue or park protocol of its own: finding, stealing and parking
//     are the pool's.
//   - The quiescence counter is striped into versioned cells, one per pool
//     worker, and summed with a double-collect scan (see quiesce.go), so
//     in-flight accounting never contends on one cache line.
//
// Actor names are caller-side labels: Spawn takes one so call sites read
// like Akka's, but the runtime keeps no registry and does not store it.
// Any number of live actors may share a name; a Ref is the only identity.
//
// A spawn is one allocation, the Ref: the behavior, the mailbox, the deque
// slot and the fault domain (supervisor and strategy) are its fields, and
// an empty mailbox owns no queue node. akka-uct spawns an actor per tree
// node, so this is the runtime's whole cost of a node.
//
// Per-message metric semantics (kept deterministic so PCA runs compare
// across versions): each send bumps atomic by 3 (in-flight stripe, mailbox
// swap, schedule CAS), each delivery bumps method by 1 (dispatch into the
// behavior) and atomic by 1 (in-flight decrement). The pool counts no
// steal and no park; a quiescence waiter's park and the notify that wakes
// it are counted as they occur.
package actors

import (
	"errors"
	"runtime"
	"sync/atomic"

	"renaissance/internal/forkjoin"
	"renaissance/internal/metrics"
	"renaissance/internal/mpsc"
)

// ErrSystemStopped is the value Spawn, Context.Spawn and Context.SpawnWith
// panic with once Shutdown has begun. Inside Receive the panic is an
// ordinary actor failure, routed to the spawning actor's Strategy; sends
// to a shut-down system do not fail, they become dead letters.
var ErrSystemStopped = errors.New("actors: system stopped")

// A Receiver defines an actor's behavior: Receive is invoked for every
// delivered message, never concurrently for the same actor.
type Receiver interface {
	Receive(ctx *Context, msg any)
}

// ReceiverFunc adapts a function to the Receiver interface.
type ReceiverFunc func(ctx *Context, msg any)

// Receive calls the function.
func (f ReceiverFunc) Receive(ctx *Context, msg any) { f(ctx, msg) }

// System is an actor system: a private fork–join pool that runs actors'
// message batches, plus striped in-flight accounting for quiescence
// detection.
type System struct {
	pool    *forkjoin.Pool
	stopped atomic.Bool

	// lanes holds one lane per pool worker, by Worker.Index (see
	// quiesce.go).
	lanes     []lane
	waiters   atomic.Int64
	quiesceCh chan struct{}

	// Fault-domain state (see supervision.go): the dead-letter counter
	// and the count of failures escalating past the top of a supervision
	// tree.
	deadCount atomic.Int64
	rootFails atomic.Int64
}

// envPool is the mailboxes' node pool, shared by every System in the
// process, so the nodes of one System's drained mailboxes serve the next:
// a workload that builds a System per iteration does not refill a fresh
// pool each time.
var envPool = mpsc.NewPool[envelope]()

// NewSystem creates an actor system on a private pool of the given number
// of workers (0 means GOMAXPROCS).
func NewSystem(workers int) *System {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &System{
		pool:      forkjoin.NewPool(workers),
		lanes:     make([]lane, workers),
		quiesceCh: make(chan struct{}, 1),
	}
	for i := range s.lanes {
		s.lanes[i].ctx.sys = s
	}
	return s
}

// Spawn creates a new actor with the given behavior and returns its
// reference. The name is a label for the call site only (see the package
// comment). It panics with ErrSystemStopped after Shutdown.
func (s *System) Spawn(name string, r Receiver) *Ref {
	return s.spawn(r, SpawnOpts{})
}

func (s *System) spawn(r Receiver, opts SpawnOpts) *Ref {
	if s.stopped.Load() {
		panic(ErrSystemStopped)
	}
	metrics.IncObject() // the actor itself
	ref := &Ref{sys: s, recv: r, supervisor: opts.Supervisor, strategy: opts.Strategy}
	ref.mb.Init(envPool)
	ref.slot = forkjoin.NewSlot(ref)
	return ref
}

// Shutdown stops the workers after in-flight messages drain. Pending
// messages that were already enqueued are still processed. A Tell racing
// Shutdown is delivered or becomes a dead letter; it never panics (the
// previous runtime could send on a closed run-queue channel here).
func (s *System) Shutdown() {
	if s.stopped.Swap(true) {
		return
	}
	s.AwaitQuiescence()
	s.pool.Close()
}

// An actor's state word: whether it holds its scheduling slot (it is on a
// deque or the inject queue, running a batch, or suspended for a backoff
// restart), and whether it has stopped. The bits are set and cleared with
// atomic Or and And, so a stop never clears the scheduled bit and a
// schedule never clears the stopped one: a message that races a Stop is
// still scheduled, and its batch dead-letters and accounts for it.
const (
	scheduledBit int32 = 1 << iota
	stoppedBit
)

// Ref is a reference to an actor; it is the only handle other code uses to
// communicate with it. A spawn allocates nothing else: the behavior, the
// mailbox, the deque slot and the fault domain are fields (96 bytes, a
// size class of its own).
type Ref struct {
	sys *System
	// recv is the behavior. It is set before the Ref is published and
	// never changes (a restart resumes the same behavior), so every
	// reader, Ref.Stop's PostStop hook included, reads it without a lock.
	recv Receiver

	mb mpsc.Queue[envelope]
	// supervisor and strategy are the immutable fault-domain
	// configuration: supervisor is nil for a tree root, strategy nil for
	// defaultStrategy.
	supervisor *Ref
	strategy   Strategy
	// slot is what a worker's deque holds while the actor is scheduled
	// there; its job is the Ref.
	slot  forkjoin.Slot
	state atomic.Int32 // scheduledBit | stoppedBit
	// restarts counts consecutive restarts; it is touched only under the
	// actor's scheduling slot and reset by every clean delivery.
	restarts int32
}

type envelope struct {
	msg    any
	sender *Ref
}

// Tell enqueues a message for the actor with no sender.
func (r *Ref) Tell(msg any) { r.enqueue(msg, nil, nil) }

// TellFrom enqueues a message with an explicit sender reference.
func (r *Ref) TellFrom(msg any, sender *Ref) { r.enqueue(msg, sender, nil) }

// enqueue is the send hot path. c, when non-nil, is the Context of the
// Receive the send executes in: the receiver goes on that worker's own
// deque, and the send is counted in the worker's lane.
func (r *Ref) enqueue(msg any, sender *Ref, c *Context) {
	s := r.sys
	if r.isStopped() || s.stopped.Load() {
		s.deadLetter()
		return
	}
	// Deterministic per-send accounting: in-flight bump + mailbox swap +
	// schedule CAS, counted identically however the send is scheduled.
	metrics.AddAtomic(3)
	var w *forkjoin.Worker
	if c != nil && c.sys == s {
		w = c.w
		s.lanes[w.Index()].cell.Add(packDelta(1))
	} else {
		// Off the pool, or a cross-system send whose worker belongs to
		// another pool.
		s.lanes[hashedLane(len(s.lanes))].cell.Add(packDelta(1))
	}
	r.mb.Push(envelope{msg, sender})
	r.schedule(w)
}

// isStopped reports whether the actor has stopped.
func (r *Ref) isStopped() bool { return r.state.Load()&stoppedBit != 0 }

// schedule takes the actor's scheduling slot and puts the actor on a run
// queue: worker w's own deque when the send originates on one of the
// System's workers, the pool's inject queue otherwise. If the actor is
// already scheduled, the holder of its slot will observe the new message.
func (r *Ref) schedule(w *forkjoin.Worker) {
	if r.state.Or(scheduledBit)&scheduledBit != 0 {
		return
	}
	if w != nil {
		w.Push(&r.slot)
	} else {
		r.sys.pool.Inject(r)
	}
}

// Run is the actor's message batch, a job of the System's pool: the worker
// that took the actor off a deque or the inject queue holds its
// scheduling slot. A batch that leaves a quiescence waiter behind and its
// worker's own deque empty wakes the waiter when the in-flight sum reads
// zero (see quiesce.go).
func (r *Ref) Run(w *forkjoin.Worker) {
	s := r.sys
	ctx := &s.lanes[w.Index()].ctx
	ctx.w = w
	r.processBatch(ctx)
	if s.waiters.Load() > 0 && !w.Queued() && s.inFlightZero() {
		select {
		case s.quiesceCh <- struct{}{}:
			metrics.IncNotify()
		default:
		}
	}
}

// batchSize bounds how many messages one scheduling slot processes, so a
// flooding actor cannot starve others (fair scheduling like Akka's
// throughput parameter). An exhausted batch requeues at the back of the
// global inject queue, behind every other runnable actor.
const batchSize = 64

// processBatch drains up to batchSize messages on the worker of ctx, which
// holds the actor's scheduling slot. Every popped envelope is accounted
// with exactly one messageDone, whether it was delivered, dead-lettered
// after a stop, or consumed by the supervision machinery, and only after
// everything the envelope causes has been published: the sends of its Receive, its dead
// letter, and the supervision decision (an escalation enqueued on the
// supervisor, a root failure counted). The quiescence sum depends on both:
// a messageDone ahead of fail lets the sum reach a verified zero while
// the failure is still climbing the tree.
func (r *Ref) processBatch(ctx *Context) {
	processed := 0
	for processed < batchSize {
		env, ok := r.mb.Pop()
		if !ok {
			if r.mb.Empty() {
				break
			}
			// A producer swapped the head but has not linked its node
			// yet; its next store lands imminently.
			runtime.Gosched()
			continue
		}
		processed++
		if r.isStopped() {
			// Stopped with queued messages: dead-letter them, keeping the
			// in-flight accounting so quiescence still reaches zero.
			r.sys.deadLetter()
			r.sys.messageDone(ctx)
			continue
		}
		if esc, ok := env.msg.(escalated); ok {
			// A child failure escalated here: apply this actor's own
			// strategy under its own slot (see supervision.go).
			suspended := r.fail(ctx, esc.err)
			r.sys.messageDone(ctx)
			if suspended {
				return // suspended for a backoff restart; slot handed off
			}
			continue
		}
		failure, failed := r.deliver(ctx, env)
		if failed {
			suspended := r.fail(ctx, failure)
			r.sys.messageDone(ctx)
			if suspended {
				return // suspended for a backoff restart; slot handed off
			}
			continue
		}
		r.sys.messageDone(ctx)
		if r.restarts != 0 {
			r.restarts = 0 // a clean delivery resets the backoff ladder
		}
	}
	if processed == batchSize && !r.mb.Empty() {
		// Fairness: keep the slot (state stays scheduled — producers must
		// not double-enqueue us) but go to the back of the global queue.
		r.sys.pool.Inject(r)
		return
	}
	// Release the scheduling slot and reclaim it if messages raced in
	// after the emptiness check.
	r.state.And(^scheduledBit)
	if !r.mb.Empty() {
		r.schedule(ctx.w)
	}
}

// Stop marks the actor stopped: further messages become dead letters and
// queued messages are drained as dead letters (still accounted). The
// PostStop hook, when the behavior implements it, runs exactly once on the
// goroutine that won the stop.
func (r *Ref) Stop() {
	if r.state.Or(stoppedBit)&stoppedBit != 0 {
		return
	}
	if h, ok := r.recv.(PostStopper); ok {
		runHook(h.PostStop)
	}
}

// Context is passed to Receive and exposes the runtime to behaviors. It is
// owned by the delivering pool worker and valid only for the duration of
// the Receive invocation; behaviors that need a handle past that must
// capture Self()/Sender() refs, not the Context.
type Context struct {
	sys    *System
	self   *Ref
	sender *Ref
	w      *forkjoin.Worker
}

// Self returns the reference of the actor processing the message.
func (c *Context) Self() *Ref { return c.self }

// Spawn creates a child actor with the default fault domain (no
// supervisor, the strategy a nil SpawnOpts.Strategy means). The name is a
// label only, as for System.Spawn; after Shutdown it panics with
// ErrSystemStopped, which fails the spawning actor like any other panic
// in Receive.
func (c *Context) Spawn(name string, r Receiver) *Ref {
	return c.sys.spawn(r, SpawnOpts{})
}

// SpawnWith creates a child actor with an explicit fault-domain
// configuration. The common tree shape passes Supervisor: c.Self(). The
// name and the ErrSystemStopped panic are as for Spawn.
func (c *Context) SpawnWith(name string, r Receiver, opts SpawnOpts) *Ref {
	return c.sys.spawn(r, opts)
}

// Send delivers msg to the target with this actor as the sender, scheduling
// the target on the delivering worker's own run queue — the fast path for
// actor-to-actor sends (an Akka-style implicit sender).
func (c *Context) Send(to *Ref, msg any) {
	to.enqueue(msg, c.self, c)
}

// Reply sends a message back to the sender, if there is one.
func (c *Context) Reply(msg any) {
	if c.sender != nil {
		c.sender.enqueue(msg, c.self, c)
	}
}

// Ask sends msg to the actor and returns a channel that receives the single
// reply, mirroring Akka's ask pattern. The reply target is an ephemeral
// ref that stops itself after the first reply.
func (r *Ref) Ask(msg any) <-chan any {
	reply := make(chan any, 1)
	metrics.IncObject()
	tmp := &Ref{sys: r.sys, recv: ReceiverFunc(func(ctx *Context, m any) {
		select {
		case reply <- m:
		default: // a second reply after the first; drop it
		}
		ctx.Self().Stop()
	})}
	tmp.mb.Init(envPool)
	tmp.slot = forkjoin.NewSlot(tmp)
	r.TellFrom(msg, tmp)
	return reply
}
