// Supervision: fault domains for the actor runtime, in the style of Akka's
// supervision trees. A panic escaping Receive is recovered by the
// delivering worker (a misbehaving actor can never take down a pool
// worker) and routed to the failing actor's Strategy, which picks one of
// four directives: Resume (keep state, next message), Restart (resume the
// same behavior after an exponential backoff, mailbox preserved), Stop
// (terminate; queued and future messages become dead letters), or Escalate
// (raise the failure to the supervisor).
//
// Two properties keep the failure path race-free without any new locks:
//
//   - Every decision runs under the failing actor's own scheduling slot.
//     A backoff restart keeps the slot (state stays scheduled, so
//     producers cannot double-enqueue a suspended actor) and a timer
//     re-injects the actor when the backoff elapses; its mailbox — and the
//     in-flight accounting of the messages in it — is untouched.
//   - Escalation is asynchronous: the child stops and sends an internal
//     `escalated` system message, which the supervisor's slot intercepts
//     and feeds to the supervisor's *own* strategy, as if the supervisor
//     itself had failed. This deliberately diverges from Akka (where the
//     parent's strategy decides the child's fate synchronously): decisions
//     here never execute on another actor's worker, so supervisor state is
//     only ever touched under the supervisor's slot. A failure that
//     escalates past the top of a tree is a root failure, counted on the
//     System.
package actors

import (
	"time"

	"renaissance/internal/chaos"
	"renaissance/internal/metrics"
)

// Directive is a supervision decision for a failed actor.
type Directive int32

const (
	// Resume keeps the actor's state and mailbox and continues with the
	// next message.
	Resume Directive = iota
	// Restart runs the PreRestart hook and resumes the same behavior
	// after an exponential backoff; the mailbox is preserved.
	Restart
	// Stop terminates the actor: the PostStop hook runs, and queued plus
	// future messages become dead letters.
	Stop
	// Escalate stops the actor and raises the failure to its supervisor;
	// with no supervisor it is a root failure.
	Escalate
)

// String names the directive for logs and tests.
func (d Directive) String() string {
	switch d {
	case Resume:
		return "resume"
	case Restart:
		return "restart"
	case Stop:
		return "stop"
	case Escalate:
		return "escalate"
	}
	return "directive(?)"
}

// Strategy decides the fate of a failing actor. Decide receives the
// recovered panic value and the number of consecutive restarts already
// performed (reset by every clean delivery).
type Strategy interface {
	Decide(err any, restarts int) Directive
}

// StrategyFunc adapts a function to the Strategy interface.
type StrategyFunc func(err any, restarts int) Directive

// Decide calls the function.
func (f StrategyFunc) Decide(err any, restarts int) Directive { return f(err, restarts) }

// OneForOne restarts the failing actor up to MaxRestarts consecutive
// times, then applies Overflow. Siblings are unaffected, as in Akka's
// one-for-one supervisor.
type OneForOne struct {
	// MaxRestarts bounds consecutive restarts; negative means unlimited,
	// zero applies Overflow to the first failure.
	MaxRestarts int
	// Overflow is the directive applied once the ladder is exhausted.
	Overflow Directive
}

// Decide implements Strategy.
func (s OneForOne) Decide(_ any, restarts int) Directive {
	if s.MaxRestarts >= 0 && restarts >= s.MaxRestarts {
		return s.Overflow
	}
	return Restart
}

// defaultStrategy governs actors spawned without a Strategy: a bounded
// restart ladder degrading to Stop, so an unsupervised failing actor
// neither crashes the process nor restarts forever.
var defaultStrategy Strategy = OneForOne{MaxRestarts: 5, Overflow: Stop}

const (
	// DefaultBackoff is the base restart delay, doubled per consecutive
	// restart.
	DefaultBackoff = time.Millisecond
	// maxBackoff caps the exponential ladder so that a chaos-injected
	// failure storm delays quiescence by a bounded amount.
	maxBackoff = 250 * time.Millisecond
)

// SpawnOpts configures an actor's fault domain at spawn time.
type SpawnOpts struct {
	// Supervisor receives this actor's escalated failures; nil makes the
	// actor a supervision-tree root.
	Supervisor *Ref
	// Strategy decides failure directives. Nil means OneForOne{MaxRestarts:
	// 5, Overflow: Stop}: up to five consecutive restarts, each after an
	// exponential backoff from DefaultBackoff, then Stop.
	Strategy Strategy
}

// PreRestarter is implemented by behaviors that want a hook before they
// resume on Restart (reset partial state, log the failure). It runs under
// the actor's slot; a panic inside the hook is swallowed.
type PreRestarter interface{ PreRestart(err any) }

// PostStopper is implemented by behaviors that want a cleanup hook when
// the actor stops, whichever path stopped it. Supervision-initiated stops
// run it under the actor's slot; an external Ref.Stop runs it on the
// calling goroutine. A panic inside the hook is swallowed.
type PostStopper interface{ PostStop() }

// escalated is the internal system message carrying a child failure to its
// supervisor. The runtime intercepts it in processBatch — it is never
// delivered to Receive — and applies the supervisor's own strategy under
// the supervisor's scheduling slot.
type escalated struct {
	err any
}

// runHook isolates a user lifecycle hook: a panicking hook must not
// re-enter the failure machinery it is called from.
func runHook(f func()) {
	defer func() { _ = recover() }()
	f()
}

func (r *Ref) strategyFor() Strategy {
	if r.strategy != nil {
		return r.strategy
	}
	return defaultStrategy
}

// Supervisor returns the actor's supervisor, or nil for a tree root.
func (r *Ref) Supervisor() *Ref { return r.supervisor }

// deliver dispatches one message into the behavior under the actor panic
// guard. It reports the recovered panic value, if any; a panicking Receive
// can therefore never unwind a pool worker.
func (r *Ref) deliver(ctx *Context, env envelope) (failure any, failed bool) {
	defer func() {
		if p := recover(); p != nil {
			failure, failed = p, true
		}
	}()
	ctx.self = r
	ctx.sender = env.sender
	metrics.IncMethod() // dynamic dispatch into the behavior
	if chaos.Maybe("actors.deliver") {
		panic(&chaos.InjectedError{Point: "actors.deliver"})
	}
	r.recv.Receive(ctx, env.msg)
	return nil, false
}

// fail applies the supervision decision for a failure observed under this
// actor's scheduling slot. It returns true when the slot has been handed
// off to the backoff timer (a suspended restart): the caller must return
// immediately without releasing or requeueing the slot.
func (r *Ref) fail(ctx *Context, err any) bool {
	switch r.strategyFor().Decide(err, int(r.restarts)) {
	case Resume:
		return false
	case Restart:
		r.restart(err)
		return true
	case Stop:
		r.Stop()
		return false
	default: // Escalate
		r.escalate(ctx, err)
		return false
	}
}

// restart runs the PreRestart hook and suspends the actor for an
// exponential backoff. The scheduling slot stays held (state remains
// scheduled) for the whole suspension — producers keep enqueueing into the
// preserved mailbox without double-scheduling — and the timer re-injects
// the actor when the backoff elapses.
func (r *Ref) restart(err any) {
	r.restarts++
	if h, ok := r.recv.(PreRestarter); ok {
		runHook(func() { h.PreRestart(err) })
	}
	d := DefaultBackoff
	for i := int32(1); i < r.restarts && d < maxBackoff; i++ {
		d <<= 1
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	time.AfterFunc(d, func() {
		// The actor still holds its slot; hand it to whichever worker
		// polls the inject queue next. After Shutdown the batch finds an
		// empty mailbox and releases the slot: Shutdown waited for
		// quiescence, which counts every queued message, and refuses new
		// ones.
		r.sys.pool.Inject(r)
	})
}

// escalate stops the failing actor and raises the failure to its
// supervisor as an internal system message (see the package comment for
// why this is asynchronous). Without a live supervisor the failure has
// reached the root of the tree.
func (r *Ref) escalate(ctx *Context, err any) {
	sup := r.Supervisor()
	r.Stop()
	if sup == nil || sup.isStopped() {
		r.sys.rootFails.Add(1)
		return
	}
	sup.enqueue(escalated{err: err}, r, ctx)
}

// RootFailures returns the number of failures that escalated past the top
// of a supervision tree.
func (s *System) RootFailures() int64 { return s.rootFails.Load() }

// DeadLetterCount returns the number of messages dead-lettered so far.
func (s *System) DeadLetterCount() int64 { return s.deadCount.Load() }

// deadLetter accounts one undeliverable message — a message sent to a
// stopped actor, or drained from a stopped actor's mailbox: the fault-path
// metric DeadLetter plus the system counter.
func (s *System) deadLetter() {
	s.deadCount.Add(1)
	metrics.IncDeadLetter()
}
