package actors

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
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
	sys := NewSystem(1)
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

// A System has one quiescence cell per pool worker, in a lane of one cache
// line, and every delivery uses the lane of the worker that runs it.
func TestQuiesceCellsSizedToWorkers(t *testing.T) {
	if got := unsafe.Sizeof(lane{}); got != 64 {
		t.Errorf("a lane is %d bytes, want one 64-byte cache line", got)
	}
	for _, n := range []int{1, 2, 3, 5} {
		sys := NewSystem(n)
		if len(sys.lanes) != n {
			t.Errorf("NewSystem(%d) has %d cells, want %d", n, len(sys.lanes), n)
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
			t.Errorf("NewSystem(%d): %d deliveries ran outside their worker's lane", n, wrong.Load())
		}
	}
}

// A System costs what its workers need, not 4 KB of stripes nor a stub
// node for its inject queue: a workload that builds one per
// iteration (akka-uct builds 150 a round) pays this every time. It
// measures 1,520 to 1,610 bytes on linux/amd64 (go1.24) since the system
// runs on a forkjoin.Pool; the bound leaves room for the runtime's
// occasional extra bytes under GC.
func TestNewSystemBytesGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only hold without the race detector")
	}
	got := bytesPerRun(50, func() { NewSystem(4).Shutdown() })
	if got > 1856 {
		t.Errorf("NewSystem(4) + Shutdown: %.0f bytes, want <= 1856", got)
	}
}
