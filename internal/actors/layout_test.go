package actors

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"

	"renaissance/internal/forkjoin"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// An actor is one object in the 96-byte size class: the behavior, the
// unpadded mailbox and the fault domain are fields of the Ref.
func TestRefFitsSizeClass(t *testing.T) {
	if got := reflect.TypeFor[Ref]().Size(); got > 96 {
		t.Errorf("Ref is %d bytes, want <= 96", got)
	}
}

// A spawn's bytes are the Ref's size class and nothing more, with or
// without a fault domain.
func TestSpawnBytesGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only hold without the race detector")
	}
	sys := newSystem(oneWorker)
	defer sys.Shutdown()

	inert := ReceiverFunc(func(*Context, any) {})
	result := make(chan [2]float64, 1)
	sys.Spawn("gate", ReceiverFunc(func(ctx *Context, _ any) {
		result <- [2]float64{
			bytesPerRun(1000, func() { ctx.Spawn("leaf", inert) }),
			bytesPerRun(1000, func() { ctx.SpawnWith("leaf", inert, SpawnOpts{Supervisor: ctx.Self()}) }),
		}
	})).Tell(nil)
	got := <-result
	if got[0] > 96 {
		t.Errorf("Context.Spawn: %.1f bytes, want <= 96", got[0])
	}
	if got[1] > 96 {
		t.Errorf("Context.SpawnWith: %.1f bytes, want <= 96", got[1])
	}
}

// A System has one quiescence cell per worker of its pool, in a lane of
// one cache line, and every delivery uses the lane of the worker that
// runs it. NewSystem's pool is Shared, whatever width it asks for.
func TestQuiesceCellsSizedToWorkers(t *testing.T) {
	if got := unsafe.Sizeof(lane{}); got != 64 {
		t.Errorf("a lane is %d bytes, want one 64-byte cache line", got)
	}
	systems := []func() *System{func() *System { return NewSystem(0) }}
	for _, n := range []int{1, 2, 3, 5} {
		systems = append(systems, func() *System { return newSystem(forkjoin.NewPool(n)) })
	}
	for _, mk := range systems {
		sys := mk()
		n := sys.pool.Width()
		if len(sys.lanes) != n {
			t.Errorf("a System on %d workers has %d cells", n, len(sys.lanes))
		}
		var wrong atomic.Int32
		a := sys.Spawn("probe", ReceiverFunc(func(ctx *Context, _ any) {
			if i := ctx.w.Index(); i >= n || ctx != &sys.lanes[i].ctx {
				wrong.Add(1)
			}
		}))
		for i := 0; i < 100; i++ {
			a.Tell(i)
		}
		sys.AwaitQuiescence()
		sys.Shutdown()
		if wrong.Load() != 0 {
			t.Errorf("a System on %d workers: %d deliveries ran outside their worker's lane", n, wrong.Load())
		}
	}
	if got, want := len(NewSystem(4).lanes), forkjoin.Shared().Width(); got != want {
		t.Errorf("NewSystem(4) has %d cells, want the shared pool's %d", got, want)
	}
}

// A System costs its lanes and its wake channel, and no pool: a workload
// that builds one per iteration (akka-uct builds 150 a round) pays this
// every time. It measures 320 bytes on a two-worker pool on linux/amd64
// (go1.24): the System, two 64-byte lanes and the channel.
func TestNewSystemBytesGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only hold without the race detector")
	}
	got := bytesPerRun(50, func() { NewSystem(0).Shutdown() })
	t.Logf("NewSystem(0) + Shutdown: %.0f bytes", got)
	if bound := 256 + 64*forkjoin.Shared().Width(); got > float64(bound) {
		t.Errorf("NewSystem(0) + Shutdown: %.0f bytes, want <= %d", got, bound)
	}
}
