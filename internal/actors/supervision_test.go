package actors

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// boomBehavior panics on every string message and counts ints; it records
// lifecycle hook invocations so tests can assert the supervision protocol.
type boomBehavior struct {
	sum         atomic.Int64
	preRestarts atomic.Int64
	postStops   atomic.Int64
	lastErr     atomic.Value
}

func (b *boomBehavior) Receive(ctx *Context, msg any) {
	switch m := msg.(type) {
	case int:
		b.sum.Add(int64(m))
	case string:
		panic("boom: " + m)
	}
}

func (b *boomBehavior) PreRestart(err any) {
	b.preRestarts.Add(1)
	b.lastErr.Store(err)
}

func (b *boomBehavior) PostStop() { b.postStops.Add(1) }

// spawnWith spawns an actor with an explicit fault domain the way the
// workloads do: from inside another actor's Receive, through its Context.
func spawnWith(sys *System, name string, r Receiver, opts SpawnOpts) *Ref {
	out := make(chan *Ref, 1)
	sys.Spawn("boot", ReceiverFunc(func(ctx *Context, _ any) {
		out <- ctx.SpawnWith(name, r, opts)
		ctx.Self().Stop()
	})).Tell(nil)
	return <-out
}

func TestPanicInReceiveDoesNotKillWorker(t *testing.T) {
	// A panicking Receive must be absorbed by the supervision machinery:
	// the worker keeps scheduling other actors and the system quiesces.
	sys := NewSystem(0)
	defer sys.Shutdown()

	bad := spawnWith(sys, "bad", ReceiverFunc(func(ctx *Context, msg any) {
		panic("always")
	}), SpawnOpts{Strategy: OneForOne{Overflow: Stop}})
	var got atomic.Int64
	good := sys.Spawn("good", ReceiverFunc(func(ctx *Context, msg any) {
		got.Add(int64(msg.(int)))
	}))

	bad.Tell("first")
	for i := 1; i <= 100; i++ {
		good.Tell(i)
	}
	sys.AwaitQuiescence()
	if got.Load() != 5050 {
		t.Errorf("good actor sum = %d, want 5050", got.Load())
	}
}

func TestRestartPreservesMailbox(t *testing.T) {
	// Messages behind the failing one — and messages arriving during the
	// backoff suspension — are delivered to the restarted behavior.
	sys := NewSystem(0)
	defer sys.Shutdown()

	b := &boomBehavior{}
	a := spawnWith(sys, "b", b, SpawnOpts{
		Strategy: OneForOne{MaxRestarts: -1},
	})
	a.Tell("die")
	const n = 50
	for i := 1; i <= n; i++ {
		a.Tell(i)
	}
	sys.AwaitQuiescence()
	if got := b.sum.Load(); got != n*(n+1)/2 {
		t.Errorf("sum after restart = %d, want %d (mailbox lost?)", got, n*(n+1)/2)
	}
	if b.preRestarts.Load() != 1 {
		t.Errorf("PreRestart ran %d times, want 1", b.preRestarts.Load())
	}
	if err, _ := b.lastErr.Load().(string); err != "boom: die" {
		t.Errorf("PreRestart saw %v, want boom: die", b.lastErr.Load())
	}
}

func TestResumeKeepsStateAcrossFault(t *testing.T) {
	// Resume drops the failing message but keeps behavior state: the
	// counter is NOT reset.
	sys := NewSystem(0)
	defer sys.Shutdown()

	count := 0 // unsynchronized: Receive is serial per actor
	a := spawnWith(sys, "res", ReceiverFunc(func(ctx *Context, msg any) {
		if msg == "die" {
			panic("die")
		}
		count++
	}), SpawnOpts{Strategy: StrategyFunc(func(any, int) Directive { return Resume })})

	for i := 0; i < 10; i++ {
		a.Tell(i)
	}
	a.Tell("die")
	for i := 0; i < 10; i++ {
		a.Tell(i)
	}
	sys.AwaitQuiescence()
	if count != 20 {
		t.Errorf("count = %d, want 20 (state lost on Resume?)", count)
	}
}

func TestRestartLadderOverflowStopsAndDeadLetters(t *testing.T) {
	// An actor that keeps failing climbs the restart ladder, overflows to
	// Stop, runs PostStop once, and dead-letters everything still queued.
	sys := NewSystem(0)
	defer sys.Shutdown()

	b := &boomBehavior{}
	a := spawnWith(sys, "doomed", b, SpawnOpts{
		Strategy: OneForOne{MaxRestarts: 2, Overflow: Stop},
	})
	// Three failures: restarts at 0 and 1, overflow at 2.
	a.Tell("a")
	a.Tell("b")
	a.Tell("c")
	a.Tell(1) // queued behind the fatal failure: becomes a dead letter
	sys.AwaitQuiescence()
	if !a.isStopped() {
		t.Fatal("actor not stopped after overflowing the restart ladder")
	}
	if got := b.preRestarts.Load(); got != 2 {
		t.Errorf("PreRestart ran %d times, want 2", got)
	}
	if got := b.postStops.Load(); got != 1 {
		t.Errorf("PostStop ran %d times, want 1", got)
	}
	if b.sum.Load() != 0 {
		t.Errorf("sum = %d, want 0 (message delivered after stop?)", b.sum.Load())
	}
	if sys.DeadLetterCount() == 0 {
		t.Error("queued message after stop was not dead-lettered")
	}
}

func TestEscalationClimbsToRootFailure(t *testing.T) {
	// leaf -> mid -> top, all escalating: one leaf failure stops the whole
	// chain and surfaces as exactly one root failure on the System.
	sys := NewSystem(0)
	defer sys.Shutdown()

	inert := ReceiverFunc(func(ctx *Context, msg any) {})
	escalate := OneForOne{Overflow: Escalate}
	top := spawnWith(sys, "top", inert, SpawnOpts{Strategy: escalate})
	mid := spawnWith(sys, "mid", inert, SpawnOpts{Supervisor: top, Strategy: escalate})
	leaf := spawnWith(sys, "leaf", ReceiverFunc(func(ctx *Context, msg any) {
		panic("leaf failure")
	}), SpawnOpts{Supervisor: mid, Strategy: escalate})

	leaf.Tell("go")
	sys.AwaitQuiescence()
	if got := sys.RootFailures(); got != 1 {
		t.Fatalf("RootFailures = %d, want 1", got)
	}
	for name, r := range map[string]*Ref{"leaf": leaf, "mid": mid, "top": top} {
		if !r.isStopped() {
			t.Errorf("%s not stopped by the escalation chain", name)
		}
	}
}

func TestQuiescenceWaitsForEscalation(t *testing.T) {
	// The popped message (the failing one at the leaf, the escalated
	// system message at mid and top) must stay in flight until the
	// supervision decision has published its consequence. One level's
	// strategy announces that it is deciding and then holds the decision
	// open; a quiescence wait started inside that window must not return
	// before the failure has reached the root.
	for slow, level := range []string{"leaf", "mid", "top"} {
		t.Run(level, func(t *testing.T) {
			sys := NewSystem(0)
			defer sys.Shutdown()

			deciding := make(chan struct{})
			strategy := func(i int) Strategy {
				if i != slow {
					return OneForOne{Overflow: Escalate}
				}
				return StrategyFunc(func(any, int) Directive {
					close(deciding)
					time.Sleep(5 * time.Millisecond)
					return Escalate
				})
			}
			inert := ReceiverFunc(func(ctx *Context, msg any) {})
			top := spawnWith(sys, "top", inert, SpawnOpts{Strategy: strategy(2)})
			mid := spawnWith(sys, "mid", inert, SpawnOpts{Supervisor: top, Strategy: strategy(1)})
			leaf := spawnWith(sys, "leaf", ReceiverFunc(func(ctx *Context, msg any) {
				panic("leaf failure")
			}), SpawnOpts{Supervisor: mid, Strategy: strategy(0)})

			leaf.Tell("go")
			<-deciding
			sys.AwaitQuiescence()
			if got := sys.RootFailures(); got != 1 {
				t.Fatalf("quiescent while %s was still deciding: RootFailures = %d, want 1", level, got)
			}
		})
	}
}

func TestEscalationRestartsSupervisor(t *testing.T) {
	// A supervisor whose own strategy says Restart treats an escalated
	// child failure like its own: it restarts and keeps serving its
	// mailbox.
	sys := NewSystem(0)
	defer sys.Shutdown()

	sup := &boomBehavior{}
	top := spawnWith(sys, "sup", sup, SpawnOpts{
		Strategy: OneForOne{MaxRestarts: -1},
	})
	child := spawnWith(sys, "child", ReceiverFunc(func(ctx *Context, msg any) {
		panic("child failure")
	}), SpawnOpts{Supervisor: top, Strategy: OneForOne{Overflow: Escalate}})

	child.Tell("go")
	top.Tell(7) // must still be served after the escalation-triggered restart
	sys.AwaitQuiescence()
	if !child.isStopped() {
		t.Error("escalating child not stopped")
	}
	if top.isStopped() {
		t.Error("supervisor stopped; its strategy said Restart")
	}
	if sup.preRestarts.Load() != 1 {
		t.Errorf("supervisor PreRestart ran %d times, want 1", sup.preRestarts.Load())
	}
	if sup.sum.Load() != 7 {
		t.Errorf("supervisor sum = %d, want 7 (mailbox lost on restart?)", sup.sum.Load())
	}
}

func TestBackoffRestartQuiesceRace(t *testing.T) {
	// A fault storm across many supervised actors — restarts suspended on
	// backoff timers while producers keep sending — must still quiesce:
	// every queued message is accounted and eventually delivered.
	sys := NewSystem(0)
	defer sys.Shutdown()

	const actors, msgs = 8, 200
	var delivered atomic.Int64
	refs := make([]*Ref, actors)
	for i := range refs {
		refs[i] = spawnWith(sys, "storm", ReceiverFunc(func(ctx *Context, msg any) {
			if msg.(int)%37 == 0 {
				panic("storm")
			}
			delivered.Add(1)
		}), SpawnOpts{
			Strategy: OneForOne{MaxRestarts: -1},
		})
	}
	var wg sync.WaitGroup
	for _, r := range refs {
		wg.Add(1)
		go func(r *Ref) {
			defer wg.Done()
			for i := 1; i <= msgs; i++ {
				r.Tell(i)
			}
		}(r)
	}
	wg.Wait()
	sys.AwaitQuiescence()
	// 200/37 -> 5 panicking messages per actor (37, 74, ..., 185).
	want := int64(actors * (msgs - 5))
	if delivered.Load() != want {
		t.Errorf("delivered %d, want %d", delivered.Load(), want)
	}
}

func TestDefaultStrategyBoundsPlainSpawnFaults(t *testing.T) {
	// A plain Spawn gets DefaultStrategy: failures restart a bounded number
	// of times and then the actor stops instead of looping forever.
	sys := NewSystem(0)
	defer sys.Shutdown()

	a := sys.Spawn("plain", ReceiverFunc(func(ctx *Context, msg any) {
		panic("always fails")
	}))
	for i := 0; i < 10; i++ {
		a.Tell(i)
	}
	sys.AwaitQuiescence()
	if !a.isStopped() {
		t.Error("always-failing plain actor still running after default ladder")
	}
}
