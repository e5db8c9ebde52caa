package ir

import (
	"errors"
	"testing"

	"renaissance/internal/rvm"
)

// buildAndExec compiles the bytecode program to IR and runs both
// interpreters, asserting agreement (the differential oracle used
// throughout the opt package as well).
func buildAndExec(t *testing.T, p *rvm.Program, args ...rvm.Value) (rvm.Value, *Stats) {
	t.Helper()
	want, werr := rvm.NewInterp(p).Run(args...)
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	e := NewExec(prog)
	got, gerr := e.Run(args...)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("error mismatch: bytecode=%v ir=%v", werr, gerr)
	}
	if werr != nil {
		return rvm.Null(), e.Stats
	}
	if !got.Equal(want) {
		t.Fatalf("value mismatch: bytecode=%v ir=%v", want, got)
	}
	return got, e.Stats
}

func mainProgram(t *testing.T, entry *rvm.Method, extra ...*rvm.Method) *rvm.Program {
	t.Helper()
	p := rvm.NewProgram()
	main := rvm.NewClass("Main", nil)
	main.AddMethod(entry)
	for _, m := range extra {
		main.AddMethod(m)
	}
	if err := p.AddClass(main); err != nil {
		t.Fatal(err)
	}
	p.Entry = entry
	return p
}

func TestBuildArithLoop(t *testing.T) {
	a := rvm.NewAsm()
	a.ConstInt(0).Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).Load(2).Load(2).Op(rvm.OpMul).Op(rvm.OpAdd).Store(1)
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(rvm.OpReturn)
	p := mainProgram(t, a.MustBuild("main", 1))
	v, stats := buildAndExec(t, p, rvm.Int(50))
	want := int64(0)
	for i := int64(0); i < 50; i++ {
		want += i * i
	}
	if v.AsInt() != want {
		t.Errorf("sum of squares = %v, want %d", v, want)
	}
	if stats.Cycles <= 0 {
		t.Error("no cycles charged")
	}
}

func TestBuildObjectsArraysGuards(t *testing.T) {
	p := rvm.NewProgram()
	cell := rvm.NewClass("Cell", nil, "v")
	if err := p.AddClass(cell); err != nil {
		t.Fatal(err)
	}
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Cell").Store(0)
	a.Load(0).ConstInt(11).Sym(rvm.OpPutField, "v")
	a.ConstInt(4).Op(rvm.OpNewArray).Store(1)
	a.Load(1).ConstInt(2).Load(0).Sym(rvm.OpGetField, "v").Op(rvm.OpAStore)
	a.Load(1).ConstInt(2).Op(rvm.OpALoad)
	a.Load(1).Op(rvm.OpArrayLen).Op(rvm.OpAdd).Op(rvm.OpReturn)
	m := a.MustBuild("main", 0)
	mainC := rvm.NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	v, stats := buildAndExec(t, p)
	if v.AsInt() != 15 {
		t.Errorf("result = %v", v)
	}
	if stats.GuardsExecuted["NullCheck"] == 0 || stats.GuardsExecuted["BoundsCheck"] == 0 {
		t.Errorf("guards = %v, want null and bounds checks", stats.GuardsExecuted)
	}
}

func TestBuildCalls(t *testing.T) {
	add := rvm.NewAsm()
	add.Load(0).Load(1).Op(rvm.OpAdd).Op(rvm.OpReturn)

	a := rvm.NewAsm()
	a.ConstInt(20).ConstInt(22).Invoke(rvm.OpInvokeStatic, "Main.add2", 2).Op(rvm.OpReturn)
	p := mainProgram(t, a.MustBuild("main", 0), add.MustBuild("add2", 2))
	if v, _ := buildAndExec(t, p); v.AsInt() != 42 {
		t.Errorf("result = %v", v)
	}
}

func TestBuildVirtualCall(t *testing.T) {
	p := rvm.NewProgram()
	base := rvm.NewClass("Base", nil)
	bm := rvm.NewAsm()
	bm.ConstInt(10).Op(rvm.OpReturn)
	base.AddMethod(bm.MustBuild("get", 1))
	derived := rvm.NewClass("Derived", base)
	dm := rvm.NewAsm()
	dm.ConstInt(20).Op(rvm.OpReturn)
	derived.AddMethod(dm.MustBuild("get", 1))
	_ = p.AddClass(base)
	_ = p.AddClass(derived)

	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Derived").Invoke(rvm.OpInvokeVirtual, "get", 1)
	a.Sym(rvm.OpNew, "Base").Invoke(rvm.OpInvokeVirtual, "get", 1)
	a.Op(rvm.OpAdd).Op(rvm.OpReturn)
	m := a.MustBuild("main", 0)
	mainC := rvm.NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	if v, _ := buildAndExec(t, p); v.AsInt() != 30 {
		t.Errorf("result = %v", v)
	}
}

func TestBuildHandle(t *testing.T) {
	twice := rvm.NewAsm()
	twice.Load(0).ConstInt(2).Op(rvm.OpMul).Op(rvm.OpReturn)
	a := rvm.NewAsm()
	a.Sym(rvm.OpInvokeDynamic, "Main.twice").ConstInt(21).Invoke(rvm.OpInvokeHandle, "", 1).Op(rvm.OpReturn)
	p := mainProgram(t, a.MustBuild("main", 0), twice.MustBuild("twice", 1))
	if v, _ := buildAndExec(t, p); v.AsInt() != 42 {
		t.Errorf("result = %v", v)
	}
}

func TestBuildCASAndAtomics(t *testing.T) {
	p := rvm.NewProgram()
	cell := rvm.NewClass("Cell", nil, "v")
	_ = p.AddClass(cell)
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Cell").Store(0)
	a.Load(0).ConstInt(0).Sym(rvm.OpPutField, "v")
	a.Load(0).ConstInt(0).ConstInt(5).Sym(rvm.OpCAS, "v").Op(rvm.OpPop)
	a.Load(0).ConstInt(3).Sym(rvm.OpAtomicAdd, "v").Op(rvm.OpPop)
	a.Load(0).Op(rvm.OpMonitorEnter)
	a.Load(0).Sym(rvm.OpGetField, "v").Store(1)
	a.Load(0).Op(rvm.OpMonitorExit)
	a.Load(1).Op(rvm.OpReturn)
	m := a.MustBuild("main", 0)
	mainC := rvm.NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	v, stats := buildAndExec(t, p)
	if v.AsInt() != 8 {
		t.Errorf("result = %v, want 8", v)
	}
	if stats.Ops[OpCAS] != 1 || stats.Ops[OpAtomicAdd] != 1 || stats.Ops[OpMonitorEnter] != 1 {
		t.Errorf("op counts: cas=%d atomicadd=%d enter=%d",
			stats.Ops[OpCAS], stats.Ops[OpAtomicAdd], stats.Ops[OpMonitorEnter])
	}
}

func TestBuildInstanceOfChain(t *testing.T) {
	p := rvm.NewProgram()
	x := rvm.NewClass("X", nil)
	y := rvm.NewClass("Y", x)
	_ = p.AddClass(x)
	_ = p.AddClass(y)
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Y").Store(0)
	a.Load(0).Sym(rvm.OpInstanceOf, "X").Jump(rvm.OpJumpIfNot, "no")
	a.ConstInt(1).Op(rvm.OpReturn)
	a.Label("no")
	a.ConstInt(0).Op(rvm.OpReturn)
	m := a.MustBuild("main", 0)
	mainC := rvm.NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	if v, _ := buildAndExec(t, p); v.AsInt() != 1 {
		t.Errorf("result = %v", v)
	}
}

func TestDeoptOnBadBounds(t *testing.T) {
	a := rvm.NewAsm()
	a.ConstInt(2).Op(rvm.OpNewArray).Store(0)
	a.Load(0).ConstInt(9).Op(rvm.OpALoad).Op(rvm.OpReturn)
	p := mainProgram(t, a.MustBuild("main", 0))
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewExec(prog).Run()
	if !errors.Is(err, ErrDeopt) {
		t.Errorf("err = %v, want deopt", err)
	}
}

func TestDominatorsAndLoops(t *testing.T) {
	// A simple counted loop: entry -> header -> body -> header / exit.
	a := rvm.NewAsm()
	a.ConstInt(0).Store(1)
	a.Label("head")
	a.Load(1).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).ConstInt(1).Op(rvm.OpAdd).Store(1)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(rvm.OpReturn)
	p := mainProgram(t, a.MustBuild("main", 1))
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["Main.main"]

	loops := FindLoops(f)
	if len(loops) != 1 {
		t.Fatalf("found %d loops, want 1:\n%s", len(loops), f)
	}
	l := loops[0]
	if len(l.Blocks) < 2 {
		t.Errorf("loop body = %d blocks", len(l.Blocks))
	}
	if len(l.Latches) != 1 {
		t.Errorf("latches = %d", len(l.Latches))
	}

	dom := Dominators(f)
	if !dom[l.Header][f.Entry] {
		t.Error("entry should dominate loop header")
	}
	for b := range l.Blocks {
		if !dom[b][l.Header] {
			t.Error("header should dominate loop body")
		}
	}
}

func TestDefCountsAndLiveness(t *testing.T) {
	a := rvm.NewAsm()
	a.ConstInt(1).Store(1)
	a.ConstInt(2).Store(1) // second def of local 1
	a.Load(1).Op(rvm.OpReturn)
	p := mainProgram(t, a.MustBuild("main", 0))
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["Main.main"]
	counts := DefCounts(f)
	if counts[1] != 2 {
		t.Errorf("defs of r1 = %d, want 2", counts[1])
	}
	live := Liveness(f)
	// r1 must be live out of nothing (single block) but present in the
	// analysis structures.
	if live == nil {
		t.Fatal("nil liveness")
	}
}

func TestFuncSizeAndString(t *testing.T) {
	a := rvm.NewAsm()
	a.ConstInt(1).ConstInt(2).Op(rvm.OpAdd).Op(rvm.OpReturn)
	p := mainProgram(t, a.MustBuild("main", 0))
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["Main.main"]
	if f.Size() < 4 {
		t.Errorf("size = %d", f.Size())
	}
	if s := f.String(); s == "" {
		t.Error("empty printer output")
	}
}

func TestEmptyMethod(t *testing.T) {
	m := &rvm.Method{Name: "empty", NArgs: 0, NLocals: 0}
	f, err := BuildFunc(m)
	if err != nil {
		t.Fatal(err)
	}
	if f.Entry == nil || f.Entry.Term.Kind != TermReturnVoid {
		t.Error("empty method should return void")
	}
}

func TestStackDepthMismatchDetected(t *testing.T) {
	// Craft bytecode where a join point is reached with different stack
	// depths: push in one path only.
	code := []rvm.Instr{
		{Op: rvm.OpLoad, A: 0},
		{Op: rvm.OpJumpIf, A: 3}, // to pc 3 with depth 0
		{Op: rvm.OpConstInt, I: 1},
		// pc 3: join — depth 0 from branch, 1 from fallthrough
		{Op: rvm.OpConstInt, I: 2},
		{Op: rvm.OpReturn},
	}
	m := &rvm.Method{Name: "bad", NArgs: 1, NLocals: 1, Code: code}
	if _, err := BuildFunc(m); !errors.Is(err, rvm.ErrVerify) {
		t.Errorf("inconsistent stack depth: err = %v, want rvm.ErrVerify", err)
	}
}
