package actors

import (
	"reflect"
	"runtime"
	"testing"
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

// An actor is one 64-byte object, one cache line: its mailbox is embedded
// without the pad that used to keep the queue's two ends on separate lines
// and made every Ref 128 bytes.
func TestRefIsOneCacheLine(t *testing.T) {
	if got := reflect.TypeFor[Ref]().Size(); got != 64 {
		t.Errorf("Ref is %d bytes, want 64", got)
	}
}

// A spawn allocates the 64-byte Ref, its 16-byte behavior box and the
// mailbox's 32-byte stub node; a fault domain adds the 24-byte supCell,
// its supervisor and strategy.
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
			bytesPerRun(1000, func() { ctx.SpawnWith("leaf", inert, SpawnOpts{}) }),
		}
	})).Tell(nil)
	got := <-result
	if got[0] > 64+16+32 {
		t.Errorf("Context.Spawn: %.1f bytes, want <= 112", got[0])
	}
	if got[1] > 64+16+32+24 {
		t.Errorf("Context.SpawnWith: %.1f bytes, want <= 136", got[1])
	}
}

// The quiescence stripes are sized to the workers: the smallest power of
// two that gives every worker its own cell, capped at maxCells.
func TestQuiesceCellsSizedToWorkers(t *testing.T) {
	for _, c := range []struct{ workers, cells int }{
		{1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {63, 64}, {64, 64}, {65, 64}, {1000, 64},
	} {
		if got := quiesceCellCount(c.workers); got != c.cells {
			t.Errorf("quiesceCellCount(%d) = %d, want %d", c.workers, got, c.cells)
		}
	}
	sys := NewSystem(3)
	defer sys.Shutdown()
	if len(sys.cells) != 4 {
		t.Fatalf("NewSystem(3) has %d cells, want 4", len(sys.cells))
	}
	seen := map[int]bool{}
	for _, w := range sys.workers {
		if seen[w.cell] {
			t.Errorf("cell %d pinned by two workers", w.cell)
		}
		seen[w.cell] = true
	}
}

// A System costs what its workers need, not maxCells' 4 KB of stripes: a
// workload that builds one per iteration (akka-uct builds 150 a round)
// pays this every time.
func TestNewSystemBytesGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts only hold without the race detector")
	}
	got := bytesPerRun(50, func() { NewSystem(4).Shutdown() })
	if got > 3072 {
		t.Errorf("NewSystem(4) + Shutdown: %.0f bytes, want <= 3072", got)
	}
}
