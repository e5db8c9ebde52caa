package cachesim

import (
	"reflect"
	"testing"

	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
	"renaissance/internal/rvm/jit"
	"renaissance/internal/rvm/opt"
)

func TestColdMissThenHit(t *testing.T) {
	s := New(nil)
	obj := rvm.NewArray(8)
	s.Access(obj, 0, false)
	counts := s.Counts()
	if counts["L1D"][1] != 1 {
		t.Errorf("first access L1 misses = %d, want 1 (cold)", counts["L1D"][1])
	}
	s.Access(obj, 0, false)
	s.Access(obj, 1, false) // same 64-byte line
	counts = s.Counts()
	if counts["L1D"][1] != 1 {
		t.Errorf("L1 misses after reuse = %d, want still 1", counts["L1D"][1])
	}
	if counts["L1D"][0] != 3 {
		t.Errorf("L1 accesses = %d, want 3", counts["L1D"][0])
	}
}

func TestCapacityMisses(t *testing.T) {
	// Stream over a working set far larger than L1 (32 KiB): most
	// accesses to distinct lines must miss L1.
	s := New(nil)
	big := rvm.NewArray(64 * 1024) // 512 KiB at 8 B/slot
	for i := 0; i < big.Len(); i += 8 {
		s.Access(big, i, false)
	}
	counts := s.Counts()
	accesses, misses := counts["L1D"][0], counts["L1D"][1]
	if misses < accesses*9/10 {
		t.Errorf("streaming L1 misses = %d of %d; expected ~all", misses, accesses)
	}
	// A second pass over a tiny prefix should hit.
	before := s.Counts()["L1D"][1]
	for pass := 0; pass < 10; pass++ {
		for i := 0; i < 64; i += 8 {
			s.Access(big, i, false)
		}
	}
	after := s.Counts()["L1D"][1]
	if after-before > 8 {
		t.Errorf("hot-prefix misses = %d, want <= 8 (first pass only)", after-before)
	}
}

func TestSeparateObjectsDistinctLines(t *testing.T) {
	s := New(nil)
	a := rvm.NewObject(rvm.NewClass("A", nil, "f"))
	b := rvm.NewObject(rvm.NewClass("B", nil, "f"))
	s.Access(a, 0, true)
	s.Access(b, 0, true)
	if got := s.Counts()["L1D"][1]; got != 2 {
		t.Errorf("two distinct objects gave %d misses, want 2", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() map[string][2]int64 {
		s := New(nil)
		arr := rvm.NewArray(4096)
		for i := 0; i < 4096; i += 3 {
			s.Access(arr, i, i%2 == 0)
		}
		return s.Counts()
	}
	if !reflect.DeepEqual(run(), run()) {
		t.Error("simulation not deterministic")
	}
}

// TestTracedExecution wires the simulator into the IR executor.
func TestTracedExecution(t *testing.T) {
	// Build a simple array-walk program.
	a := rvm.NewAsm()
	a.Load(0).Op(rvm.OpNewArray).Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).Load(2).Load(2).Op(rvm.OpAStore)
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.ConstInt(0).Op(rvm.OpReturn)
	m := a.MustBuild("main", 1)
	p := rvm.NewProgram()
	mainC := rvm.NewClass("Main", nil)
	mainC.AddMethod(m)
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.Entry = m

	c, err := jit.Compile(p, opt.BaselinePipeline())
	if err != nil {
		t.Fatal(err)
	}
	sim := New(nil)
	if _, _, err := c.RunTraced(sim, rvm.Int(1024)); err != nil {
		t.Fatal(err)
	}
	counts := sim.Counts()
	if counts["L1D"][0] < 1024 {
		t.Errorf("traced accesses = %d, want >= 1024", counts["L1D"][0])
	}
	// Sequential walk: one miss per 8-slot line.
	wantMisses := int64(1024 / 8)
	got := counts["L1D"][1]
	if got < wantMisses-2 || got > wantMisses+8 {
		t.Errorf("L1 misses = %d, want ~%d (sequential walk)", got, wantMisses)
	}
	var _ ir.MemTracer = sim // interface check
}
