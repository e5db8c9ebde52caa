package actors

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"renaissance/internal/forkjoin"
)

// A Tell racing Shutdown must never panic (the previous runtime could send
// on the closed run-queue channel in this window) — the message is either
// delivered or becomes a dead letter. Run under -race -count=5 by `make
// stress`.
func TestSendShutdownRace(t *testing.T) {
	for round := 0; round < 50; round++ {
		sys := NewSystem(0)
		var received atomic.Int64
		a := sys.Spawn("target", ReceiverFunc(func(ctx *Context, msg any) {
			received.Add(1)
		}))

		const senders = 4
		const perSender = 200
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < senders; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for j := 0; j < perSender; j++ {
					a.Tell(j) // must never panic, even mid-Shutdown
				}
			}()
		}
		close(start)
		sys.Shutdown() // races the senders
		wg.Wait()
		if got := received.Load(); got > senders*perSender {
			t.Fatalf("received %d messages, sent only %d", got, senders*perSender)
		}
	}
}

// A flooding actor that always has mail must not starve its peers: the
// batch bound forces it to requeue at the back of the global inject queue,
// behind every other runnable actor. With a single worker this is a strict
// fairness test — the victim's one message must still be delivered while
// the flooder self-perpetuates.
func TestFloodingActorFairness(t *testing.T) {
	sys := newSystem(oneWorker)
	defer sys.Shutdown()

	stop := make(chan struct{})
	flooder := sys.Spawn("flooder", ReceiverFunc(func(ctx *Context, msg any) {
		select {
		case <-stop:
		default:
			ctx.Send(ctx.Self(), msg) // keep our own mailbox hot forever
		}
	}))
	// Prime the flooder with a full batch so its slot is always exhausted.
	for i := 0; i < batchSize*2; i++ {
		flooder.Tell(i)
	}

	victimDone := make(chan struct{})
	victim := sys.Spawn("victim", ReceiverFunc(func(ctx *Context, msg any) {
		close(victimDone)
	}))
	victim.Tell("ping")

	select {
	case <-victimDone:
	case <-time.After(10 * time.Second):
		t.Fatal("victim starved by flooding actor; batch fairness broken")
	}
	close(stop)
	sys.AwaitQuiescence()
}

// AwaitQuiescence racing the final messageDone: the striped, versioned
// in-flight counter must never report quiescence while a forwarding chain
// still has a message in flight. Every round asserts the full count the
// instant AwaitQuiescence returns — an early report loses increments.
func TestQuiesceNotEarlyUnderChains(t *testing.T) {
	sys := NewSystem(0)
	defer sys.Shutdown()

	const chains = 8
	const chainLen = 20
	const rounds = 30

	var delivered atomic.Int64
	roots := make([]*Ref, chains)
	for c := 0; c < chains; c++ {
		next := sys.Spawn("sink", ReceiverFunc(func(ctx *Context, msg any) {
			delivered.Add(1)
		}))
		for i := 0; i < chainLen; i++ {
			target := next
			next = sys.Spawn("stage", ReceiverFunc(func(ctx *Context, msg any) {
				ctx.Send(target, msg)
			}))
		}
		roots[c] = next
	}

	for round := 1; round <= rounds; round++ {
		for _, root := range roots {
			root.Tell(round)
		}
		sys.AwaitQuiescence()
		if got := delivered.Load(); got != int64(round*chains) {
			t.Fatalf("round %d: AwaitQuiescence returned early: %d/%d deliveries",
				round, got, round*chains)
		}
	}
}

// Stop racing Tell: sends and the stop flag race freely; the run must be
// race-clean, quiescence must still be reached (skipped messages stay
// accounted), and no message may arrive after Stop's effects are visible.
func TestStopRacingTellQuiesces(t *testing.T) {
	for round := 0; round < 30; round++ {
		sys := NewSystem(0)
		var received atomic.Int64
		a := sys.Spawn("stopme", ReceiverFunc(func(ctx *Context, msg any) {
			received.Add(1)
		}))

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				a.Tell(i)
			}
		}()
		runtime.Gosched()
		a.Stop()
		wg.Wait()
		sys.AwaitQuiescence() // must not hang on dropped/skipped accounting
		if got := received.Load(); got > 2000 {
			t.Fatalf("received %d > sent 2000", got)
		}
		sys.Shutdown()
	}
}

// Quiescence under adversarial load: a flooder with a bounded fuse, fan-in
// producers, and concurrent AwaitQuiescence callers must all agree on
// termination, with every send accounted.
func TestQuiesceUnderAdversarialLoad(t *testing.T) {
	sys := NewSystem(0)
	defer sys.Shutdown()

	var count atomic.Int64
	var expect int64

	// Flooder: each message below the fuse re-sends twice — a burst tree.
	const fuseDepth = 8
	var flooder *Ref
	flooder = sys.Spawn("burst", ReceiverFunc(func(ctx *Context, msg any) {
		count.Add(1)
		d := msg.(int)
		if d < fuseDepth {
			ctx.Send(ctx.Self(), d+1)
			ctx.Send(ctx.Self(), d+1)
		}
	}))
	flooder.Tell(0)
	expect += 1<<(fuseDepth+1) - 1

	// Fan-in from off-scheduler goroutines.
	sink := sys.Spawn("sink", ReceiverFunc(func(ctx *Context, msg any) {
		count.Add(1)
	}))
	const producers = 4
	const perProducer = 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				sink.Tell(i)
			}
		}()
	}
	expect += producers * perProducer
	wg.Wait() // all sends issued (and counted in flight) before awaiting

	done := make(chan struct{})
	for i := 0; i < 3; i++ { // concurrent waiters must all wake
		go func() {
			sys.AwaitQuiescence()
			done <- struct{}{}
		}()
	}
	for i := 0; i < 3; i++ {
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("AwaitQuiescence hung (missed wakeup)")
		}
	}
	if got := count.Load(); got != expect {
		t.Fatalf("delivered %d, want %d", got, expect)
	}
}

// Repeated Asks each get their own reply: the ephemeral reply refs do not
// interfere with one another, and each stops itself without leaving a dead
// letter behind.
func TestAskRepeated(t *testing.T) {
	sys := NewSystem(0)
	defer sys.Shutdown()

	echo := sys.Spawn("echo", ReceiverFunc(func(ctx *Context, msg any) {
		ctx.Reply(msg)
	}))
	for i := 0; i < 100; i++ {
		select {
		case got := <-echo.Ask(i):
			if got != i {
				t.Fatalf("ask %d: got %v", i, got)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("ask %d timed out", i)
		}
	}
	sys.AwaitQuiescence()
	if got := sys.DeadLetterCount(); got != 0 {
		t.Fatalf("DeadLetterCount = %d after 100 single-reply asks, want 0", got)
	}
}

// A flooded-then-drained mailbox must release its payload buffers: envelope
// nodes are pooled and their message references cleared on dequeue, so the
// GC can reclaim every payload. This is the regression test for the old
// mutex mailbox, whose `queue = queue[1:]` drain pinned the slice head (and
// everything it referenced) until the next reallocation.
func TestMailboxFloodDrainReleasesBuffers(t *testing.T) {
	sys := NewSystem(0)
	defer sys.Shutdown()

	a := sys.Spawn("hoarder", ReceiverFunc(func(ctx *Context, msg any) {}))

	type payload struct{ buf [4096]byte }
	const n = 200
	collected := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		p := &payload{}
		runtime.SetFinalizer(p, func(*payload) { collected <- struct{}{} })
		a.Tell(p)
	}
	sys.AwaitQuiescence() // mailbox fully drained

	if !a.mb.Empty() {
		t.Fatal("drained mailbox still holds envelopes")
	}
	deadline := time.After(10 * time.Second)
	for got := 0; got < n; {
		runtime.GC()
		select {
		case <-collected:
			got++
		case <-deadline:
			t.Fatalf("only %d/%d payloads collected; mailbox retains drained buffers", got, n)
		}
	}
}

// The pool must actually steal: a single actor fanning out to children
// fills one worker's deque, and a child delivered on another worker was
// stolen from it (only the owner pops its deque). Forces real parallelism
// — on one P the victim drains its own deque before a thief ever gets
// scheduled.
func TestStealAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	sys := newSystem(forkjoin.NewPool(4))
	defer sys.Shutdown()

	var fanWorker atomic.Int64
	var hits, stolen atomic.Int64
	var spin atomic.Int64
	children := make([]*Ref, 256)
	for i := range children {
		children[i] = sys.Spawn("child", ReceiverFunc(func(ctx *Context, msg any) {
			for i := 0; i < 200; i++ { // give thieves a window
				spin.Add(1)
			}
			if int64(ctx.w.Index()) != fanWorker.Load() {
				stolen.Add(1)
			}
			hits.Add(1)
		}))
	}
	fan := sys.Spawn("fan", ReceiverFunc(func(ctx *Context, msg any) {
		fanWorker.Store(int64(ctx.w.Index()))
		for _, c := range children {
			ctx.Send(c, msg) // all land on this worker's own deque
		}
	}))

	deadline := time.Now().Add(20 * time.Second)
	for round := 0; stolen.Load() == 0; round++ {
		if time.Now().After(deadline) {
			t.Fatal("no child delivered off the fan's worker; work stays pinned to one worker")
		}
		fan.Tell(round)
		sys.AwaitQuiescence()
	}
	if hits.Load() == 0 {
		t.Fatal("no child deliveries")
	}
}

// Stop racing the scheduling of its actor, from off the pool (Tell, the
// inject queue) and from on it (Context.Send, a worker's deque): the stop
// and scheduled bits share one state word, and neither may clear the
// other. Every message must be delivered or dead-lettered exactly once,
// and AwaitQuiescence must return. Run under -race -count=20.
func TestStopRacingScheduleAccountsEveryMessage(t *testing.T) {
	const perSender = 500
	for round := 0; round < 40; round++ {
		sys := NewSystem(0)
		var received atomic.Int64
		target := sys.Spawn("target", ReceiverFunc(func(*Context, any) { received.Add(1) }))
		relay := sys.Spawn("relay", ReceiverFunc(func(ctx *Context, msg any) {
			for i := 0; i < perSender; i++ {
				ctx.Send(target, i)
			}
		}))

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				target.Tell(i)
			}
		}()
		go func() {
			defer wg.Done()
			relay.Tell(nil)
		}()
		for i := 0; i < round%8; i++ {
			runtime.Gosched()
		}
		target.Stop()
		wg.Wait()

		done := make(chan struct{})
		go func() {
			sys.AwaitQuiescence()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: AwaitQuiescence did not return after Stop raced the sends", round)
		}
		// The relay's own message is the one delivery that is not the
		// target's.
		if got, dead := received.Load(), sys.DeadLetterCount(); got+dead != 2*perSender {
			t.Fatalf("round %d: %d delivered + %d dead-lettered, want %d sends accounted", round, got, dead, 2*perSender)
		}
		sys.Shutdown()
	}
}

// Two Systems on one worker: the last batch of one sends to an actor of
// the other, which goes on the worker's own deque, and then ends. Its
// waiter must still be woken: on a shared pool the deque can hold another
// System's mail, so the wake rule reads the lanes, not the deque.
func TestQuiesceWhenLastBatchLeavesOtherWorkQueued(t *testing.T) {
	other, sys := newSystem(oneWorker), newSystem(oneWorker)
	var got atomic.Int64
	sink := other.Spawn("sink", ReceiverFunc(func(*Context, any) { got.Add(1) }))
	src := sys.Spawn("src", ReceiverFunc(func(ctx *Context, msg any) {
		for sys.waiters.Load() == 0 {
			runtime.Gosched()
		}
		time.Sleep(5 * time.Millisecond) // let the waiter park
		ctx.Send(sink, msg)
	}))
	src.Tell(1)
	done := make(chan struct{})
	go func() {
		sys.AwaitQuiescence()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AwaitQuiescence missed the wake of a batch that left another System's actor on its deque")
	}
	other.AwaitQuiescence()
	if got.Load() != 1 {
		t.Errorf("sink got %d messages, want 1", got.Load())
	}
}
