// Package actors implements a message-passing actor runtime in the style of
// Akka and the Reactors framework, used by the akka-uct and reactors
// benchmarks (Table 1: "actors, message-passing"). Actors own a mailbox,
// process one message at a time, and are multiplexed over a fixed pool of
// scheduler workers.
//
// The runtime is lock-free on the per-message hot path:
//
//   - Each mailbox is a Vyukov-style intrusive MPSC queue (internal/mpsc)
//     with pooled envelope nodes and no stub: a send is one atomic swap
//     plus one atomic link store, and the consuming worker drains a batch
//     without taking a lock per message, with one CAS when it takes the
//     last queued message.
//   - Runnable actors are distributed over per-worker Chase–Lev deques
//     with work stealing, a lock-free inject queue for sends that
//     originate off the scheduler, and a park protocol for idle workers:
//     forkjoin.Sched, the scheduling core the fork–join pool runs on too.
//     The System keeps its own workers, which run actors' message batches,
//     not pool tasks.
//   - The quiescence counter is striped into versioned per-worker cells and
//     summed with a double-collect scan (see quiesce.go), so in-flight
//     accounting never contends on one cache line.
//
// Actor names are caller-side labels: Spawn takes one so call sites read
// like Akka's, but the runtime keeps no registry and does not store it.
// Any number of live actors may share a name; a Ref is the only identity.
//
// A spawn is one allocation, the Ref: the behavior, the mailbox and the
// fault domain (supervisor and strategy) are its fields, and an empty
// mailbox owns no queue node. akka-uct spawns an actor per tree node, so
// this is the runtime's whole cost of a node.
//
// Per-message metric semantics (kept deterministic so PCA runs compare
// across versions): each send bumps atomic by 3 (in-flight stripe, mailbox
// swap, schedule CAS), each delivery bumps method by 1 (dispatch into the
// behavior) and atomic by 1 (in-flight decrement). Steals, parks, and
// notifies are scheduling events and are counted as they occur.
package actors

import (
	"errors"
	"runtime"
	"sync"
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

// System is an actor system: per-worker run queues served by parked-when-idle
// worker goroutines, plus striped in-flight accounting for quiescence
// detection.
type System struct {
	workers []*worker
	// sched holds the workers' deques of runnable actors, the inject
	// queue for actors scheduled off the workers, and the park protocol.
	sched   forkjoin.Sched[*Ref, Ref]
	done    chan struct{}
	wg      sync.WaitGroup
	stopped atomic.Bool
	// Steals counts successful run-queue steals; the adversarial suite
	// reads it to prove work does not stay pinned to one worker.
	Steals atomic.Int64

	cells     []quiesceCell // quiesceCellCount(workers) of them
	cellMask  int
	waiters   atomic.Int64
	quiesceCh chan struct{}

	// Fault-domain state (see supervision.go): the dead-letter counter
	// and the count of failures escalating past the top of a supervision
	// tree.
	deadCount atomic.Int64
	rootFails atomic.Int64
}

// The node pools are shared by every System in the process, so the nodes
// of one System's drained mailboxes serve the next: a workload that builds
// a System per iteration does not refill a fresh pool each time.
var (
	envPool    = mpsc.NewPool[envelope]()
	injectPool = mpsc.NewPool[*Ref]()
)

// NewSystem creates an actor system with the given number of scheduler
// workers (0 means GOMAXPROCS).
func NewSystem(workers int) *System {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &System{
		done:      make(chan struct{}),
		quiesceCh: make(chan struct{}, 1),
	}
	s.cells = make([]quiesceCell, quiesceCellCount(workers))
	s.cellMask = len(s.cells) - 1
	s.workers = make([]*worker, workers)
	deques := make([]*forkjoin.Deque[Ref], workers)
	for i := range s.workers {
		w := &worker{sys: s, cell: i & s.cellMask, seq: uint64(i) << 32}
		w.ctx = Context{sys: s, w: w}
		s.workers[i], deques[i] = w, &w.dq
	}
	s.sched.Init(deques, injectPool)
	for _, w := range s.workers {
		s.wg.Add(1)
		go w.run()
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
	close(s.done)
	s.wg.Wait()
}

type worker struct {
	sys  *System
	cell int // pinned in-flight stripe, see quiesce.go
	dq   forkjoin.Deque[Ref]
	seq  uint64  // steal-start counter, distinct per worker
	ctx  Context // reused across deliveries; valid only inside Receive
}

// injectBatch bounds how many runnable actors one worker moves from the
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
		if s.sched.Park(s.done) {
			metrics.IncPark()
		}
	}
}

// findRunnable searches the worker's own deque (LIFO), then a batch of the
// inject queue, then the other workers' deques (FIFO, a random start).
func (w *worker) findRunnable() *Ref {
	if r := w.dq.Pop(); r != nil {
		return r
	}
	if r, n := w.sys.sched.Poll(injectBatch, w.dq.Push); n > 0 {
		return r
	}
	w.seq++
	if r := w.sys.sched.Steal(&w.dq, w.seq); r != nil {
		w.sys.Steals.Add(1)
		metrics.IncAtomic() // steal → atomic (a real scheduling event)
		return r
	}
	return nil
}

// actor mailbox scheduling states
const (
	idle int32 = iota
	scheduled
)

// Ref is a reference to an actor; it is the only handle other code uses to
// communicate with it. A spawn allocates nothing else: the behavior, the
// mailbox and the fault domain are fields (88 bytes, the 96-byte size
// class).
type Ref struct {
	sys *System
	// recv is the behavior. It is set before the Ref is published and
	// never changes (a restart resumes the same behavior), so every
	// reader, Ref.Stop's PostStop hook included, reads it without a lock.
	recv Receiver

	mb mpsc.Queue[envelope]
	// supervisor and strategy are the immutable fault-domain
	// configuration: supervisor is nil for a tree root, strategy nil for
	// DefaultStrategy.
	supervisor *Ref
	strategy   Strategy
	state      atomic.Int32
	// restarts counts consecutive restarts; it is touched only under the
	// actor's scheduling slot and reset by every clean delivery.
	restarts int32
	stopped  atomic.Bool
}

type envelope struct {
	msg    any
	sender *Ref
}

// Tell enqueues a message for the actor with no sender.
func (r *Ref) Tell(msg any) { r.enqueue(msg, nil, nil) }

// TellFrom enqueues a message with an explicit sender reference.
func (r *Ref) TellFrom(msg any, sender *Ref) { r.enqueue(msg, sender, nil) }

// enqueue is the send hot path. w, when non-nil, is the scheduler worker on
// whose goroutine the send executes (sends made through a Context during
// Receive): its run queue and pinned in-flight cell are used.
func (r *Ref) enqueue(msg any, sender *Ref, w *worker) {
	if w != nil && w.sys != r.sys {
		w = nil // cross-system send: the hint's queues belong elsewhere
	}
	if r.stopped.Load() || r.sys.stopped.Load() {
		r.sys.deadLetter()
		return
	}
	// Deterministic per-send accounting: in-flight bump + mailbox swap +
	// schedule CAS, counted identically however the send is scheduled.
	metrics.AddAtomic(3)
	if w != nil {
		r.sys.incInFlightAt(w.cell)
	} else {
		r.sys.incInFlightAt(hashedCell(r.sys.cellMask))
	}
	r.mb.Push(envelope{msg, sender})
	r.schedule(w)
}

// schedule transitions the mailbox from idle to scheduled with a CAS and
// puts the actor on a run queue: the sending worker's own deque when the
// send originates on the scheduler, the lock-free inject queue otherwise.
// If the actor is already scheduled, the holder of its slot will observe
// the new message.
func (r *Ref) schedule(w *worker) {
	if r.state.CompareAndSwap(idle, scheduled) {
		if w != nil {
			w.dq.Push(r)
			r.sys.sched.Signal()
		} else {
			r.sys.sched.Push(r)
		}
	}
}

// batchSize bounds how many messages one scheduling slot processes, so a
// flooding actor cannot starve others (fair scheduling like Akka's
// throughput parameter). An exhausted batch requeues at the back of the
// global inject queue, behind every other runnable actor.
const batchSize = 64

// processBatch drains up to batchSize messages on worker w, which holds the
// actor's scheduling slot. Every popped envelope is accounted with exactly
// one messageDone, whether it was delivered, dead-lettered after a stop, or
// consumed by the supervision machinery, and only after everything the
// envelope causes has been published: the sends of its Receive, its dead
// letter, and the supervision decision (an escalation enqueued on the
// supervisor, a root failure counted). The quiescence sum depends on both:
// a messageDone ahead of fail lets the sum reach a verified zero while
// the failure is still climbing the tree.
func (r *Ref) processBatch(w *worker) {
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
		if r.stopped.Load() {
			// Stopped with queued messages: dead-letter them, keeping the
			// in-flight accounting so quiescence still reaches zero.
			r.sys.deadLetter()
			r.sys.messageDone(w)
			continue
		}
		if esc, ok := env.msg.(escalated); ok {
			// A child failure escalated here: apply this actor's own
			// strategy under its own slot (see supervision.go).
			suspended := r.fail(w, esc.err)
			r.sys.messageDone(w)
			if suspended {
				return // suspended for a backoff restart; slot handed off
			}
			continue
		}
		failure, failed := r.deliver(w, env)
		if failed {
			suspended := r.fail(w, failure)
			r.sys.messageDone(w)
			if suspended {
				return // suspended for a backoff restart; slot handed off
			}
			continue
		}
		r.sys.messageDone(w)
		if r.restarts != 0 {
			r.restarts = 0 // a clean delivery resets the backoff ladder
		}
	}
	if processed == batchSize && !r.mb.Empty() {
		// Fairness: keep the slot (state stays scheduled — producers must
		// not double-enqueue us) but go to the back of the global queue.
		r.sys.sched.Push(r)
		return
	}
	// Release the scheduling slot and reclaim it if messages raced in
	// after the emptiness check.
	r.state.Store(idle)
	if !r.mb.Empty() {
		r.schedule(w)
	}
}

// Stop marks the actor stopped: further messages become dead letters and
// queued messages are drained as dead letters (still accounted). The
// PostStop hook, when the behavior implements it, runs exactly once on the
// goroutine that won the stop.
func (r *Ref) Stop() {
	if r.stopped.Swap(true) {
		return
	}
	if h, ok := r.recv.(PostStopper); ok {
		runHook(h.PostStop)
	}
}

// Context is passed to Receive and exposes the runtime to behaviors. It is
// owned by the delivering scheduler worker and valid only for the duration
// of the Receive invocation; behaviors that need a handle past that must
// capture Self()/Sender() refs, not the Context.
type Context struct {
	sys    *System
	self   *Ref
	sender *Ref
	w      *worker
}

// Self returns the reference of the actor processing the message.
func (c *Context) Self() *Ref { return c.self }

// Spawn creates a child actor with the default fault domain (no
// supervisor, DefaultStrategy). The name is a label only, as for
// System.Spawn; after Shutdown it panics with ErrSystemStopped, which
// fails the spawning actor like any other panic in Receive.
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
	to.enqueue(msg, c.self, c.w)
}

// Reply sends a message back to the sender, if there is one.
func (c *Context) Reply(msg any) {
	if c.sender != nil {
		c.sender.enqueue(msg, c.self, c.w)
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
	r.TellFrom(msg, tmp)
	return reply
}
