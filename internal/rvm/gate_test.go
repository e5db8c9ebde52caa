package rvm_test

import (
	"runtime"
	"testing"

	"renaissance/internal/minilang"
	"renaissance/internal/rvm"
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

// Quickening a method allocates its quickened code at its final, fused
// length in 40-byte instructions, a dense per-pc entry table, and one
// table of symbolic operands: 39 to 45 bytes per bytecode instruction on
// the dotty corpus. Sizing 88-byte instructions before fusion, with a map
// of entries, took 113 to 123.
func TestQuickenBytesGate(t *testing.T) {
	if rvm.RaceEnabled {
		t.Skip("allocation sizes are perturbed by the race detector")
	}
	for i, src := range minilang.Corpus(3) { // one unit of each shape
		p, err := minilang.Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, m := range p.Methods() {
			n += len(m.Code)
		}
		perInstr := bytesPerRun(50, rvm.Quickener(p)) / float64(n)
		t.Logf("unit %d: %d instructions, %.1f bytes each to quicken", i, n, perInstr)
		if perInstr > 50 {
			t.Errorf("unit %d: quickening allocates %.1f bytes per instruction, want <= 50", i, perInstr)
		}
	}
}
