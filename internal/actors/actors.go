// Package actors implements a message-passing actor runtime in the style of
// Akka and the Reactors framework, used by the akka-uct and reactors
// benchmarks (Table 1: "actors, message-passing"). Actors own a mailbox,
// process one message at a time, and are multiplexed over a fixed pool of
// scheduler workers.
//
// The runtime is lock-free on the per-message hot path:
//
//   - Each mailbox is a Vyukov-style intrusive MPSC queue (internal/mpsc)
//     with pooled envelope nodes: a send is one atomic swap plus one atomic
//     link store, and the consuming worker drains a batch wait-free without
//     taking a lock per message.
//   - Runnable actors are distributed over per-worker Chase–Lev deques
//     (internal/forkjoin.Deque) with work stealing and a global lock-free
//     inject queue for sends that originate off the scheduler; idle workers
//     park on a wakeup channel instead of spinning.
//   - The quiescence counter is striped into versioned per-worker cells and
//     summed with a double-collect scan (see quiesce.go), so in-flight
//     accounting never contends on one cache line.
//
// Actor names are caller-side labels: Spawn takes one so call sites read
// like Akka's, but the runtime keeps no registry and does not store it.
// Any number of live actors may share a name; a Ref is the only identity.
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
	inject  mpsc.Queue[*Ref] // runnable actors enqueued off-scheduler
	latch   atomic.Bool      // single-consumer latch for draining inject
	wake    chan struct{}
	done    chan struct{}
	wg      sync.WaitGroup
	stopped atomic.Bool
	idle    atomic.Int64
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
		wake:      make(chan struct{}, workers),
		done:      make(chan struct{}),
		quiesceCh: make(chan struct{}, 1),
	}
	s.inject.Init(injectPool)
	s.cells = make([]quiesceCell, quiesceCellCount(workers))
	s.cellMask = len(s.cells) - 1
	for i := 0; i < workers; i++ {
		w := &worker{
			sys:   s,
			cell:  i & s.cellMask,
			seq:   uint64(i) << 32,
			local: metrics.AcquireAt(i),
		}
		w.ctx = Context{sys: s, w: w}
		s.workers = append(s.workers, w)
	}
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
	return s.spawn(nil, r, nil)
}

func supCellFor(opts SpawnOpts) *supCell {
	return &supCell{
		supervisor: opts.Supervisor,
		strategy:   opts.Strategy,
	}
}

func (s *System) spawn(w *worker, r Receiver, sup *supCell) *Ref {
	if s.stopped.Load() {
		panic(ErrSystemStopped)
	}
	if w != nil {
		w.local.IncObject() // the actor itself
	} else {
		metrics.IncObject()
	}
	ref := &Ref{sys: s, sup: sup}
	ref.setBehavior(r)
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

// actor mailbox scheduling states
const (
	idle int32 = iota
	scheduled
)

// Ref is a reference to an actor; it is the only handle other code uses to
// communicate with it.
type Ref struct {
	sys *System
	// recv is the current behavior. It is swapped on Restart (always under
	// the actor's scheduling slot) and read on every delivery; the atomic
	// pointer makes external readers (Ref.Stop's PostStop hook) safe too.
	recv atomic.Pointer[Receiver]

	mb      mpsc.Queue[envelope]
	state   atomic.Int32
	stopped atomic.Bool
	// sup is the immutable fault-domain configuration (nil for plain
	// spawns: DefaultStrategy, no supervisor). restarts counts consecutive
	// restarts; it is touched only under the actor's scheduling slot and
	// reset by every clean delivery.
	sup      *supCell
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

// enqueue is the send hot path. w, when non-nil, is the scheduler worker on
// whose goroutine the send executes (sends made through a Context during
// Receive): its run queue and pinned metric shard and in-flight cell are
// used, so the whole send is three uncontended-or-lock-free atomics.
func (r *Ref) enqueue(msg any, sender *Ref, w *worker) {
	if w != nil && w.sys != r.sys {
		w = nil // cross-system send: the hint's queues belong elsewhere
	}
	if r.stopped.Load() || r.sys.stopped.Load() {
		r.sys.deadLetter(w)
		return
	}
	// Deterministic per-send accounting: in-flight bump + mailbox swap +
	// schedule CAS, counted identically however the send is scheduled.
	if w != nil {
		w.local.AddAtomic(3)
		r.sys.incInFlightAt(w.cell)
	} else {
		metrics.AddAtomic(3)
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
		} else {
			r.sys.inject.Push(r)
		}
		r.sys.signal()
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
			r.sys.deadLetter(w)
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
		r.sys.inject.Push(r)
		r.sys.signal()
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
	if h, ok := r.behavior().(PostStopper); ok {
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
	return c.sys.spawn(c.w, r, nil)
}

// SpawnWith creates a child actor with an explicit fault-domain
// configuration. The common tree shape passes Supervisor: c.Self(). The
// name and the ErrSystemStopped panic are as for Spawn.
func (c *Context) SpawnWith(name string, r Receiver, opts SpawnOpts) *Ref {
	return c.sys.spawn(c.w, r, supCellFor(opts))
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
	tmp := &Ref{sys: r.sys}
	tmp.mb.Init(envPool)
	tmp.setBehavior(ReceiverFunc(func(ctx *Context, m any) {
		select {
		case reply <- m:
		default: // a second reply after the first; drop it
		}
		ctx.Self().Stop()
	}))
	r.TellFrom(msg, tmp)
	return reply
}
