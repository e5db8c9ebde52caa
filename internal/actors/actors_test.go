package actors

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"renaissance/internal/forkjoin"
	"renaissance/internal/futures"
)

// oneWorker is the pool of the tests that need a single worker, such as
// the strict fairness test. Like every pool it is built once and left
// parked.
var oneWorker = forkjoin.NewPool(1)

func TestTellDelivery(t *testing.T) {
	sys := NewSystem(0)
	defer sys.Shutdown()

	var got atomic.Int64
	a := sys.Spawn("adder", ReceiverFunc(func(ctx *Context, msg any) {
		got.Add(int64(msg.(int)))
	}))
	for i := 1; i <= 100; i++ {
		a.Tell(i)
	}
	sys.AwaitQuiescence()
	if got.Load() != 5050 {
		t.Errorf("sum = %d, want 5050", got.Load())
	}
}

func TestSequentialProcessing(t *testing.T) {
	// An actor must never process two messages concurrently.
	sys := NewSystem(0)
	defer sys.Shutdown()

	var inside atomic.Int32
	var violations atomic.Int32
	a := sys.Spawn("serial", ReceiverFunc(func(ctx *Context, msg any) {
		if inside.Add(1) != 1 {
			violations.Add(1)
		}
		time.Sleep(time.Microsecond)
		inside.Add(-1)
	}))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a.Tell(i)
			}
		}()
	}
	wg.Wait()
	sys.AwaitQuiescence()
	if violations.Load() != 0 {
		t.Errorf("%d concurrent Receive invocations", violations.Load())
	}
}

func TestOrderingPerSender(t *testing.T) {
	// Messages from one goroutine to one actor arrive in send order.
	sys := NewSystem(0)
	defer sys.Shutdown()

	var mu sync.Mutex
	var order []int
	a := sys.Spawn("ordered", ReceiverFunc(func(ctx *Context, msg any) {
		mu.Lock()
		order = append(order, msg.(int))
		mu.Unlock()
	}))
	const n = 200
	for i := 0; i < n; i++ {
		a.Tell(i)
	}
	sys.AwaitQuiescence()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != n {
		t.Fatalf("delivered %d, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; FIFO violated", i, v)
		}
	}
}

func TestReplyAndSender(t *testing.T) {
	sys := NewSystem(0)
	defer sys.Shutdown()

	echo := sys.Spawn("echo", ReceiverFunc(func(ctx *Context, msg any) {
		if ctx.sender == nil {
			t.Error("nil sender in ask")
			return
		}
		ctx.Reply("echo:" + msg.(string))
	}))
	select {
	case reply := <-echo.Ask("hi"):
		if reply != "echo:hi" {
			t.Errorf("reply = %v", reply)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ask timed out")
	}
}

func TestSpawnChildrenAndQuiescence(t *testing.T) {
	// A small fan-out tree computation: each node spawns children and the
	// total count is accumulated — the akka-uct shape in miniature.
	sys := NewSystem(0)
	defer sys.Shutdown()

	var count atomic.Int64
	var spawnNode func(depth int) *Ref
	spawnNode = func(depth int) *Ref {
		return sys.Spawn("node", ReceiverFunc(func(ctx *Context, msg any) {
			count.Add(1)
			if depth < 3 {
				for i := 0; i < 2; i++ {
					child := spawnNode(depth + 1)
					child.Tell("visit")
				}
			}
		}))
	}
	root := spawnNode(0)
	root.Tell("visit")
	sys.AwaitQuiescence()
	// Full binary tree of depth 3: 1+2+4+8 = 15 visits.
	if count.Load() != 15 {
		t.Errorf("visits = %d, want 15", count.Load())
	}
}

func TestStopBecomesDeadLetter(t *testing.T) {
	sys := newSystem(oneWorker)
	defer sys.Shutdown()

	var received atomic.Int64
	a := sys.Spawn("stopme", ReceiverFunc(func(ctx *Context, msg any) {
		received.Add(1)
	}))
	a.Tell(1)
	sys.AwaitQuiescence()
	a.Stop()
	a.Tell(2)
	a.Tell(3)
	sys.AwaitQuiescence()
	if received.Load() != 1 {
		t.Errorf("received = %d, want 1 (post-stop messages dropped)", received.Load())
	}
	if got := sys.DeadLetterCount(); got != 2 {
		t.Errorf("DeadLetterCount = %d, want 2 (one per post-stop message)", got)
	}
}

func TestPingPong(t *testing.T) {
	// Two actors bouncing a counter — the reactors ping-pong workload shape.
	sys := NewSystem(0)
	defer sys.Shutdown()

	done := make(chan int, 1)
	var ping, pong *Ref
	pong = sys.Spawn("pong", ReceiverFunc(func(ctx *Context, msg any) {
		ctx.Reply(msg.(int) + 1)
	}))
	ping = sys.Spawn("ping", ReceiverFunc(func(ctx *Context, msg any) {
		n := msg.(int)
		if n >= 1000 {
			done <- n
			return
		}
		pong.TellFrom(n, ctx.Self())
	}))
	ping.Tell(0)
	select {
	case n := <-done:
		if n < 1000 {
			t.Errorf("final count = %d", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ping-pong deadlocked")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	sys := newSystem(oneWorker)
	sys.Spawn("x", ReceiverFunc(func(*Context, any) {}))
	sys.Shutdown()
	sys.Shutdown() // must not panic or deadlock
}

func TestTellAfterShutdownIsDropped(t *testing.T) {
	sys := newSystem(oneWorker)
	var n atomic.Int64
	a := sys.Spawn("y", ReceiverFunc(func(*Context, any) { n.Add(1) }))
	a.Tell(1)
	sys.Shutdown()
	a.Tell(2) // dead letter, no panic
	if n.Load() != 1 {
		t.Errorf("processed = %d, want 1", n.Load())
	}
}

// settledGoroutines reads runtime.NumGoroutine until two reads 10 ms apart
// agree, so goroutines that earlier tests left exiting are not counted.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// A System starts no goroutine: once the shared pool runs, building one,
// sending through it, waiting for quiescence and shutting it down leaves
// the goroutine count where it was.
func TestSystemStartsNoGoroutine(t *testing.T) {
	forkjoin.Shared().Invoke(func(*forkjoin.Worker) any { return nil }) // warm the pool
	before := settledGoroutines()
	for round := range 5 {
		sys := NewSystem(0)
		var got atomic.Int64
		sink := sys.Spawn("sink", ReceiverFunc(func(*Context, any) { got.Add(1) }))
		relay := sys.Spawn("relay", ReceiverFunc(func(ctx *Context, msg any) { ctx.Send(sink, msg) }))
		for i := range 100 {
			relay.Tell(i)
		}
		sys.AwaitQuiescence()
		sys.Shutdown()
		if got.Load() != 100 {
			t.Fatalf("round %d: sink got %d messages, want 100", round, got.Load())
		}
	}
	if after := settledGoroutines(); after != before {
		t.Errorf("goroutines: %d before five Systems, %d after", before, after)
	}
}

// blocker occupies a pool worker until release is closed.
type blocker struct {
	started *sync.WaitGroup
	release chan struct{}
}

func (b blocker) Run(*forkjoin.Worker) {
	b.started.Done()
	<-b.release
}

// A future's Await on a plain goroutine runs the shared pool's injected
// work while every worker is blocked, and so takes an actor's message
// batch through Pool.Help. The batch runs off the pool, with a Context
// of its own rather than a worker lane's; its sends go through the inject
// queue; and quiescence counts every message exactly.
func TestQuiesceCountsBatchHelpedByAwait(t *testing.T) {
	p := forkjoin.Shared()
	sys := NewSystem(0)
	defer sys.Shutdown()

	var delivered, offPool, inLane atomic.Int64
	sink := sys.Spawn("sink", ReceiverFunc(func(*Context, any) { delivered.Add(1) }))
	relay := sys.Spawn("relay", ReceiverFunc(func(ctx *Context, msg any) {
		delivered.Add(1)
		if ctx.w == nil {
			offPool.Add(1)
		}
		for i := range sys.lanes {
			if ctx == &sys.lanes[i].ctx {
				inLane.Add(1)
			}
		}
		ctx.Send(sink, msg)
	}))

	var started sync.WaitGroup
	release := make(chan struct{})
	started.Add(p.Width())
	for range p.Width() {
		p.Inject(blocker{&started, release})
	}
	started.Wait()

	const n = batchSize / 2 // one batch
	for i := range n {
		relay.Tell(i)
	}
	// The relay's batch is on the inject queue ahead of the body, and no
	// worker is free to take either.
	v, err := futures.Async(func() (int, error) { return 7, nil }).Await()
	close(release)
	if v != 7 || err != nil {
		t.Fatalf("Await = %d, %v; want 7, nil", v, err)
	}
	done := make(chan struct{})
	go func() {
		sys.AwaitQuiescence()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AwaitQuiescence did not return after a helped batch")
	}
	if got := delivered.Load(); got != 2*n {
		t.Errorf("%d deliveries at quiescence, want %d", got, 2*n)
	}
	if offPool.Load() != n || inLane.Load() != 0 {
		t.Errorf("relay: %d of %d deliveries off the pool, %d with a worker lane's Context; want all off the pool, none in a lane",
			offPool.Load(), n, inLane.Load())
	}
}
