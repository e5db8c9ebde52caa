package actors

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Actors that share a name are independent: a name is a label the runtime
// does not keep, so a spawn storm under one name — off the scheduler and
// from inside a Receive at once — yields refs that each get exactly their
// own messages, and stopping one leaves the rest live.
func TestSpawnSameNameConcurrent(t *testing.T) {
	sys := NewSystem(0)
	defer sys.Shutdown()

	const goroutines, perG, storm = 8, 200, 400
	const total = goroutines*perG + storm
	var hits [total]atomic.Int32
	var misdelivered atomic.Int32
	refs := make([]*Ref, total)
	behavior := func(id int) Receiver {
		return ReceiverFunc(func(_ *Context, msg any) {
			if msg != id {
				misdelivered.Add(1)
			}
			hits[id].Add(1)
		})
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := g * perG; id < (g+1)*perG; id++ {
				refs[id] = sys.Spawn("worker", behavior(id))
				refs[id].Tell(id)
			}
		}()
	}
	stormed := make(chan struct{})
	sys.Spawn("worker", ReceiverFunc(func(ctx *Context, _ any) {
		for id := goroutines * perG; id < total; id++ {
			refs[id] = ctx.Spawn("worker", behavior(id))
			ctx.Send(refs[id], id)
		}
		close(stormed)
	})).Tell(nil)
	wg.Wait()
	<-stormed
	sys.AwaitQuiescence()

	refs[0].Stop()
	for id, r := range refs {
		r.Tell(id)
	}
	sys.AwaitQuiescence()

	if n := misdelivered.Load(); n != 0 {
		t.Errorf("%d messages reached an actor other than the one they were sent to", n)
	}
	for id := range hits {
		want := int32(2)
		if id == 0 {
			want = 1 // stopped before the second round
		}
		if got := hits[id].Load(); got != want {
			t.Fatalf("actor %d received %d messages, want %d", id, got, want)
		}
	}
	if got := sys.DeadLetterCount(); got != 1 {
		t.Errorf("DeadLetterCount = %d, want 1 (only the stopped actor's second message)", got)
	}
}

// Spawning on a shut-down system panics with ErrSystemStopped. Off the
// scheduler the caller sees the panic; inside a Receive still draining
// during Shutdown it is the spawning actor's failure, decided by its own
// strategy, and never unwinds the worker.
func TestSpawnAfterShutdown(t *testing.T) {
	sys := NewSystem(0)

	var decided atomic.Int32
	release := make(chan struct{})
	late := spawnWith(sys, "late", ReceiverFunc(func(ctx *Context, _ any) {
		<-release // held until Shutdown has begun
		ctx.Spawn("child", ReceiverFunc(func(*Context, any) {}))
		t.Error("Context.Spawn returned on a shut-down system")
	}), SpawnOpts{Strategy: StrategyFunc(func(err any, _ int) Directive {
		if err != ErrSystemStopped {
			t.Errorf("strategy saw %v, want ErrSystemStopped", err)
		}
		decided.Add(1)
		return Stop
	})})
	late.Tell(nil)

	down := make(chan struct{})
	go func() {
		sys.Shutdown()
		close(down)
	}()
	for !sys.stopped.Load() {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	select {
	case <-down:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the draining actor failed")
	}
	if got := decided.Load(); got != 1 {
		t.Errorf("the spawning actor's strategy decided %d failures, want 1", got)
	}
	if !late.isStopped() {
		t.Error("the Stop directive was not applied to the spawning actor")
	}

	defer func() {
		if p := recover(); p != ErrSystemStopped {
			t.Errorf("System.Spawn after Shutdown: recovered %v, want ErrSystemStopped", p)
		}
	}()
	sys.Spawn("x", ReceiverFunc(func(*Context, any) {}))
	t.Error("System.Spawn returned on a shut-down system")
}

// A spawn allocates exactly one object, the Ref, with or without a fault
// domain: nothing is boxed, no name is kept, and an empty mailbox owns no
// queue node.
func TestSpawnAllocationGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only hold without the race detector")
	}
	sys := newSystem(oneWorker)
	defer sys.Shutdown()

	inert := ReceiverFunc(func(*Context, any) {})
	result := make(chan [2]float64, 1)
	sys.Spawn("gate", ReceiverFunc(func(ctx *Context, _ any) {
		result <- [2]float64{
			testing.AllocsPerRun(200, func() { ctx.Spawn("leaf", inert) }),
			testing.AllocsPerRun(200, func() { ctx.SpawnWith("leaf", inert, SpawnOpts{Supervisor: ctx.Self()}) }),
		}
	})).Tell(nil)
	got := <-result
	if got[0] != 1 {
		t.Errorf("Context.Spawn: %v allocations, want 1", got[0])
	}
	if got[1] != 1 {
		t.Errorf("Context.SpawnWith: %v allocations, want 1", got[1])
	}
}
