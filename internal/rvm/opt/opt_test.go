package opt

import (
	"testing"
	"time"

	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
)

// mainProgram wraps methods into a program with class Main.
func mainProgram(t *testing.T, classes []*rvm.Class, entry *rvm.Method, extra ...*rvm.Method) *rvm.Program {
	t.Helper()
	p := rvm.NewProgram()
	for _, c := range classes {
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
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

// compileAndRun builds IR, applies the pipeline, executes, and checks the
// result against the reference bytecode interpreter.
func compileAndRun(t *testing.T, p *rvm.Program, pipe *Pipeline, args ...rvm.Value) (*ir.Program, *ir.Stats) {
	t.Helper()
	want, werr := rvm.NewInterp(p).Run(args...)
	if werr != nil {
		t.Fatalf("bytecode reference failed: %v", werr)
	}
	prog, err := ir.BuildProgram(p)
	if err != nil {
		t.Fatalf("BuildProgram: %v", err)
	}
	if pipe != nil {
		pipe.Compile(prog)
	}
	e := ir.NewExec(prog)
	got, gerr := e.Run(args...)
	if gerr != nil {
		t.Fatalf("IR execution failed: %v\n%s", gerr, prog.Funcs[prog.Entry])
	}
	if !got.Equal(want) {
		t.Fatalf("result mismatch: bytecode=%v ir=%v (pipeline %v)\n%s",
			want, got, pipe, prog.Funcs[prog.Entry])
	}
	return prog, e.Stats
}

// cyclesWith compiles with the pipeline and returns the executed cycles.
func cyclesWith(t *testing.T, p *rvm.Program, pipe *Pipeline, args ...rvm.Value) int64 {
	t.Helper()
	_, stats := compileAndRun(t, p, pipe, args...)
	return stats.Cycles
}

func TestCanonicalizeConstFold(t *testing.T) {
	a := rvm.NewAsm()
	a.ConstInt(6).ConstInt(7).Op(rvm.OpMul).Op(rvm.OpReturn)
	p := mainProgram(t, nil, a.MustBuild("main", 0))
	prog, _ := compileAndRun(t, p, &Pipeline{
		Passes:   []Pass{{NameCanonicalize, Canonicalize}, {NameDCE, DeadCodeElim}},
		Disabled: map[string]bool{}, PassTime: Duration0(),
	})
	f := prog.Funcs["Main.main"]
	// Everything folds to: const 42; return.
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if in.Op == ir.OpMul {
				t.Errorf("unfolded multiply remains:\n%s", f)
			}
		}
	}
}

// Duration0 builds an empty pass-time map (test helper).
func Duration0() map[string]time.Duration { return map[string]time.Duration{} }

func TestCanonicalizeGuardOnFreshAlloc(t *testing.T) {
	cell := rvm.NewClass("Cell", nil, "v")
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Cell").Store(0)
	a.Load(0).ConstInt(3).Sym(rvm.OpPutField, "v")
	a.Load(0).Sym(rvm.OpGetField, "v").Op(rvm.OpReturn)
	p := mainProgram(t, []*rvm.Class{cell}, a.MustBuild("main", 0))

	prog, err := ir.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["Main.main"]
	before := countOp(f, ir.OpGuardNull)
	Canonicalize(f, prog)
	after := countOp(f, ir.OpGuardNull)
	if before == 0 {
		t.Fatal("builder emitted no guards")
	}
	if after != 0 {
		t.Errorf("guards on fresh allocation survive: %d -> %d\n%s", before, after, f)
	}
	compileAndRun(t, p, nil)
}

func countOp(f *ir.Func, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestDCERemovesDeadArith(t *testing.T) {
	a := rvm.NewAsm()
	a.ConstInt(10).ConstInt(20).Op(rvm.OpAdd).Store(1) // dead
	a.ConstInt(5).Op(rvm.OpReturn)
	p := mainProgram(t, nil, a.MustBuild("main", 0))
	prog, err := ir.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["Main.main"]
	DeadCodeElim(f, prog)
	if n := countOp(f, ir.OpAdd); n != 0 {
		t.Errorf("dead add survives (%d)\n%s", n, f)
	}
	compileAndRun(t, p, nil)
}

func TestInlineStaticCall(t *testing.T) {
	sq := rvm.NewAsm()
	sq.Load(0).Load(0).Op(rvm.OpMul).Op(rvm.OpReturn)

	a := rvm.NewAsm()
	a.Load(0).Invoke(rvm.OpInvokeStatic, "Main.square", 1).Op(rvm.OpReturn)
	p := mainProgram(t, nil, a.MustBuild("main", 1), sq.MustBuild("square", 1))

	pipe := &Pipeline{Passes: []Pass{{NameInline, Inline}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	prog, _ := compileAndRun(t, p, pipe, rvm.Int(9))
	if n := countOp(prog.Funcs["Main.main"], ir.OpCallStatic); n != 0 {
		t.Errorf("call survives inlining (%d)\n%s", n, prog.Funcs["Main.main"])
	}
}

func TestInlineSkipsRecursion(t *testing.T) {
	f := rvm.NewAsm()
	f.Load(0).ConstInt(1).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "rec")
	f.ConstInt(0).Op(rvm.OpReturn)
	f.Label("rec")
	f.Load(0).ConstInt(1).Op(rvm.OpSub).Invoke(rvm.OpInvokeStatic, "Main.down", 1).Op(rvm.OpReturn)

	a := rvm.NewAsm()
	a.Load(0).Invoke(rvm.OpInvokeStatic, "Main.down", 1).Op(rvm.OpReturn)
	p := mainProgram(t, nil, a.MustBuild("main", 1), f.MustBuild("down", 1))
	pipe := &Pipeline{Passes: []Pass{{NameInline, Inline}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	compileAndRun(t, p, pipe, rvm.Int(5))
}

// handlePipelineProgram builds the §5.4 shape: a lambda invoked through a
// method handle inside a loop.
func handlePipelineProgram(t *testing.T) *rvm.Program {
	t.Helper()
	lam := rvm.NewAsm()
	lam.Load(0).ConstInt(3).Op(rvm.OpMul).ConstInt(1).Op(rvm.OpAdd).Op(rvm.OpReturn)

	a := rvm.NewAsm()
	a.Sym(rvm.OpInvokeDynamic, "Main.lambda").Store(1) // handle
	a.ConstInt(0).Store(2)                             // acc
	a.ConstInt(0).Store(3)                             // i
	a.Label("head")
	a.Load(3).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(2).Load(1).Load(3).Invoke(rvm.OpInvokeHandle, "", 1).Op(rvm.OpAdd).Store(2)
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	return mainProgram(t, nil, a.MustBuild("main", 1), lam.MustBuild("lambda", 1))
}

func TestMHSDevirtualizesHandleCall(t *testing.T) {
	p := handlePipelineProgram(t)
	pipe := &Pipeline{Passes: []Pass{{NameMHS, MethodHandleSimplify}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	prog, _ := compileAndRun(t, p, pipe, rvm.Int(100))
	f := prog.Funcs["Main.main"]
	if countOp(f, ir.OpCallHandle) != 0 {
		t.Errorf("handle call survives MHS\n%s", f)
	}
	if countOp(f, ir.OpCallStatic) == 0 {
		t.Errorf("no direct call produced\n%s", f)
	}
}

func TestMHSEnablesInliningSpeedup(t *testing.T) {
	p := handlePipelineProgram(t)
	baseline := cyclesWith(t, p, nil, rvm.Int(1000))
	mhsOnly := cyclesWith(t, p, &Pipeline{
		Passes:   []Pass{{NameMHS, MethodHandleSimplify}},
		Disabled: map[string]bool{}, PassTime: Duration0()}, rvm.Int(1000))
	full := cyclesWith(t, p, &Pipeline{
		Passes: []Pass{
			{NameMHS, MethodHandleSimplify},
			{NameInline, Inline},
			{NameCanonicalize, Canonicalize},
			{NameDCE, DeadCodeElim},
		},
		Disabled: map[string]bool{}, PassTime: Duration0()}, rvm.Int(1000))
	if mhsOnly >= baseline {
		t.Errorf("MHS alone did not reduce cycles: %d -> %d", baseline, mhsOnly)
	}
	if full >= mhsOnly {
		t.Errorf("MHS+inline did not beat MHS alone: %d -> %d", mhsOnly, full)
	}
}

// eawaProgram allocates a counter object per loop iteration, CASes its
// field twice, and accumulates the value — the §5.1 java.util.Random shape.
func eawaProgram(t *testing.T) *rvm.Program {
	t.Helper()
	counter := rvm.NewClass("Counter", nil, "x")
	a := rvm.NewAsm()
	a.ConstInt(0).Store(1) // acc
	a.ConstInt(0).Store(2) // i
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Sym(rvm.OpNew, "Counter").Store(3)
	a.Load(3).ConstInt(0).ConstInt(7).Sym(rvm.OpCAS, "x").Op(rvm.OpPop)
	a.Load(3).ConstInt(7).ConstInt(9).Sym(rvm.OpCAS, "x").Op(rvm.OpPop)
	a.Load(3).Op(rvm.OpMonitorEnter)
	a.Load(3).Sym(rvm.OpGetField, "x").Load(1).Op(rvm.OpAdd).Store(1)
	a.Load(3).Op(rvm.OpMonitorExit)
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(rvm.OpReturn)
	return mainProgram(t, []*rvm.Class{counter}, a.MustBuild("main", 1))
}

func TestEAWAScalarReplacesAllocation(t *testing.T) {
	p := eawaProgram(t)
	pipe := &Pipeline{Passes: []Pass{{NameEAWA, EscapeAnalysis}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	prog, stats := compileAndRun(t, p, pipe, rvm.Int(50))
	f := prog.Funcs["Main.main"]
	if countOp(f, ir.OpNew) != 0 {
		t.Errorf("allocation survives escape analysis\n%s", f)
	}
	if countOp(f, ir.OpCAS) != 0 {
		t.Errorf("heap CAS survives\n%s", f)
	}
	if countOp(f, ir.OpScalarCAS) == 0 {
		t.Errorf("no scalar CAS emitted\n%s", f)
	}
	if countOp(f, ir.OpMonitorEnter) != 0 {
		t.Errorf("monitor on non-escaping object survives\n%s", f)
	}
	if stats.Ops[ir.OpNew] != 0 {
		t.Errorf("allocations executed: %d", stats.Ops[ir.OpNew])
	}
}

func TestEAWASpeedup(t *testing.T) {
	p := eawaProgram(t)
	without := cyclesWith(t, p, nil, rvm.Int(1000))
	with := cyclesWith(t, p, &Pipeline{
		Passes:   []Pass{{NameEAWA, EscapeAnalysis}},
		Disabled: map[string]bool{}, PassTime: Duration0()}, rvm.Int(1000))
	if with >= without {
		t.Errorf("EAWA did not reduce cycles: %d -> %d", without, with)
	}
}

func TestEAWALeavesEscapingAlone(t *testing.T) {
	// The object is returned, so it escapes.
	cell := rvm.NewClass("Cell", nil, "v")
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Cell").Store(0)
	a.Load(0).ConstInt(0).ConstInt(5).Sym(rvm.OpCAS, "v").Op(rvm.OpPop)
	a.Load(0).Op(rvm.OpReturn)
	p := mainProgram(t, []*rvm.Class{cell}, a.MustBuild("main", 0))
	prog, err := ir.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["Main.main"]
	EscapeAnalysis(f, prog)
	if countOp(f, ir.OpNew) != 1 {
		t.Errorf("escaping allocation removed\n%s", f)
	}
}

// acProgram builds the §5.3 shape: two consecutive CAS retry loops on a
// shared cell, repeated in an outer loop.
func acProgram(t *testing.T) (*rvm.Program, *rvm.Class) {
	t.Helper()
	cell := rvm.NewClass("Cell", nil, "x")

	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Cell").Store(1) // shared cell (escapes via virtual use below? keep local but multi-use)
	a.ConstInt(0).Store(2)            // i
	a.Label("outer")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	// retry loop 1: x = x*3 (f1)
	a.Label("retry1")
	a.Load(1).Sym(rvm.OpGetField, "x").Store(3)
	a.Load(3).ConstInt(3).Op(rvm.OpMul).Store(4)
	a.Load(1).Load(3).Load(4).Sym(rvm.OpCAS, "x").Jump(rvm.OpJumpIfNot, "retry1")
	// retry loop 2: x = x+1 (f2)
	a.Label("retry2")
	a.Load(1).Sym(rvm.OpGetField, "x").Store(5)
	a.Load(5).ConstInt(1).Op(rvm.OpAdd).Store(6)
	a.Load(1).Load(5).Load(6).Sym(rvm.OpCAS, "x").Jump(rvm.OpJumpIfNot, "retry2")
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "outer")
	a.Label("exit")
	a.Load(1).Sym(rvm.OpGetField, "x").Op(rvm.OpReturn)
	return mainProgram(t, []*rvm.Class{cell}, a.MustBuild("main", 1)), cell
}

func TestACCoalescesRetryLoops(t *testing.T) {
	p, _ := acProgram(t)
	pipe := &Pipeline{Passes: []Pass{{NameAC, CoalesceAtomics}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	prog, stats := compileAndRun(t, p, pipe, rvm.Int(20))
	f := prog.Funcs["Main.main"]
	if n := countOp(f, ir.OpCAS); n != 1 {
		t.Errorf("CAS count after coalescing = %d, want 1\n%s", n, f)
	}
	// 20 iterations, one CAS each.
	if stats.Ops[ir.OpCAS] != 20 {
		t.Errorf("executed CAS = %d, want 20", stats.Ops[ir.OpCAS])
	}
}

func TestACSpeedup(t *testing.T) {
	p, _ := acProgram(t)
	without := cyclesWith(t, p, nil, rvm.Int(500))
	with := cyclesWith(t, p, &Pipeline{
		Passes:   []Pass{{NameAC, CoalesceAtomics}},
		Disabled: map[string]bool{}, PassTime: Duration0()}, rvm.Int(500))
	if with >= without {
		t.Errorf("AC did not reduce cycles: %d -> %d", without, with)
	}
}

// llcProgram builds the §5.2 shape: a loop locking a monitor each
// iteration around a small critical region.
func llcProgram(t *testing.T) *rvm.Program {
	t.Helper()
	lock := rvm.NewClass("Lock", nil, "v")
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Lock").Store(1)
	a.ConstInt(0).Store(2) // i
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).Op(rvm.OpMonitorEnter)
	a.Load(1).Load(1).Sym(rvm.OpGetField, "v").Load(2).Op(rvm.OpAdd).Sym(rvm.OpPutField, "v")
	a.Load(1).Op(rvm.OpMonitorExit)
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Sym(rvm.OpGetField, "v").Op(rvm.OpReturn)
	return mainProgram(t, []*rvm.Class{lock}, a.MustBuild("main", 1))
}

func TestLLCCoarsensMonitors(t *testing.T) {
	p := llcProgram(t)
	pipe := &Pipeline{Passes: []Pass{{NameLLC, CoarsenLocks}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	const iters = 320
	_, stats := compileAndRun(t, p, pipe, rvm.Int(iters))
	enters := stats.Ops[ir.OpMonitorEnter]
	want := int64(iters)/CoarsenChunk + 1
	if enters > want {
		t.Errorf("monitor enters = %d, want <= %d (chunked by %d)", enters, want, CoarsenChunk)
	}
	if enters == 0 {
		t.Error("no monitor enters at all")
	}
}

func TestLLCSpeedup(t *testing.T) {
	p := llcProgram(t)
	without := cyclesWith(t, p, nil, rvm.Int(2000))
	with := cyclesWith(t, p, &Pipeline{
		Passes:   []Pass{{NameLLC, CoarsenLocks}},
		Disabled: map[string]bool{}, PassTime: Duration0()}, rvm.Int(2000))
	if float64(with) > 0.7*float64(without) {
		t.Errorf("LLC speedup too small: %d -> %d", without, with)
	}
}

// gmProgram builds the §5.5 shape: a loop with null and bounds guards on
// every access.
func gmProgram(t *testing.T) *rvm.Program {
	t.Helper()
	a := rvm.NewAsm()
	// main(n): arr = new[n]; s = 0; for i in 0..n-1 { arr[i] = i; s += arr[i] }
	a.Load(0).Op(rvm.OpNewArray).Store(1)
	a.ConstInt(0).Store(2) // s
	a.ConstInt(0).Store(3) // i
	a.Label("head")
	a.Load(3).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).Load(3).Load(3).Op(rvm.OpAStore)
	a.Load(2).Load(1).Load(3).Op(rvm.OpALoad).Op(rvm.OpAdd).Store(2)
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	return mainProgram(t, nil, a.MustBuild("main", 1))
}

func TestGMHoistsGuards(t *testing.T) {
	p := gmProgram(t)
	const n = 100
	// Without GM: 2 bounds guards per iteration.
	_, without := compileAndRun(t, p, nil, rvm.Int(n))
	// With GM.
	pipe := &Pipeline{Passes: []Pass{{NameGM, GuardMotion}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	_, with := compileAndRun(t, p, pipe, rvm.Int(n))

	if without.GuardsExecuted["BoundsCheck"] < 2*n {
		t.Fatalf("baseline bounds guards = %v", without.GuardsExecuted)
	}
	if with.GuardsExecuted["BoundsCheck"] != 0 {
		t.Errorf("in-loop bounds guards remain: %v", with.GuardsExecuted)
	}
	if with.GuardsExecuted["Speculative BoundsCheck"] == 0 {
		t.Errorf("no speculative guards executed: %v", with.GuardsExecuted)
	}
	totalWith := with.GuardsExecuted["Speculative BoundsCheck"] +
		with.GuardsExecuted["Speculative NullCheck"] +
		with.GuardsExecuted["BoundsCheck"] + with.GuardsExecuted["NullCheck"]
	totalWithout := without.GuardsExecuted["BoundsCheck"] + without.GuardsExecuted["NullCheck"]
	if totalWith*5 > totalWithout {
		t.Errorf("guard reduction too small: %d -> %d", totalWithout, totalWith)
	}
}

// lvProgram builds the §5.6 shape: c[i] = a[i] + b[i].
func lvProgram(t *testing.T) *rvm.Program {
	t.Helper()
	a := rvm.NewAsm()
	// main(n): a,b,c arrays; fill a[i]=i, b[i]=2i (scalar loops with
	// stores only — vectorizer requires loads, so these stay scalar);
	// then c[i] = a[i] + b[i]; return sum(c).
	a.Load(0).Op(rvm.OpNewArray).Store(1)
	a.Load(0).Op(rvm.OpNewArray).Store(2)
	a.Load(0).Op(rvm.OpNewArray).Store(3)
	a.ConstInt(0).Store(4)
	a.Label("fill")
	a.Load(4).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "filldone")
	a.Load(1).Load(4).Load(4).Op(rvm.OpAStore)
	a.Load(2).Load(4).Load(4).ConstInt(2).Op(rvm.OpMul).Op(rvm.OpAStore)
	a.Load(4).ConstInt(1).Op(rvm.OpAdd).Store(4)
	a.Jump(rvm.OpJump, "fill")
	a.Label("filldone")
	a.ConstInt(0).Store(5)
	a.Label("vec")
	a.Load(5).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "vecdone")
	a.Load(3).Load(5).Load(1).Load(5).Op(rvm.OpALoad).Load(2).Load(5).Op(rvm.OpALoad).Op(rvm.OpAdd).Op(rvm.OpAStore)
	a.Load(5).ConstInt(1).Op(rvm.OpAdd).Store(5)
	a.Jump(rvm.OpJump, "vec")
	a.Label("vecdone")
	a.ConstInt(0).Store(6) // sum
	a.ConstInt(0).Store(7)
	a.Label("sum")
	a.Load(7).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "sumdone")
	a.Load(6).Load(3).Load(7).Op(rvm.OpALoad).Op(rvm.OpAdd).Store(6)
	a.Load(7).ConstInt(1).Op(rvm.OpAdd).Store(7)
	a.Jump(rvm.OpJump, "sum")
	a.Label("sumdone")
	a.Load(6).Op(rvm.OpReturn)
	return mainProgram(t, nil, a.MustBuild("main", 1))
}

func TestLVRequiresGM(t *testing.T) {
	p := lvProgram(t)
	// LV alone: guards block vectorization.
	lvOnly := &Pipeline{Passes: []Pass{{NameLV, Vectorize}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	_, stats := compileAndRun(t, p, lvOnly, rvm.Int(64))
	if stats.Ops[ir.OpVecArith] != 0 {
		t.Errorf("vectorized despite guards (executed %d vector ops)", stats.Ops[ir.OpVecArith])
	}
	// GM then LV: the c[i]=a[i]+b[i] loop vectorizes.
	gmlv := &Pipeline{
		Passes:   []Pass{{NameGM, GuardMotion}, {NameLV, Vectorize}},
		Disabled: map[string]bool{}, PassTime: Duration0()}
	_, stats2 := compileAndRun(t, p, gmlv, rvm.Int(64))
	if stats2.Ops[ir.OpVecArith] == 0 {
		t.Error("GM+LV did not vectorize")
	}
}

func TestLVRemainderCorrectness(t *testing.T) {
	// Sizes not divisible by the vector width must still be exact.
	p := lvProgram(t)
	gmlv := &Pipeline{
		Passes:   []Pass{{NameGM, GuardMotion}, {NameLV, Vectorize}},
		Disabled: map[string]bool{}, PassTime: Duration0()}
	for _, n := range []int64{1, 2, 3, 4, 5, 7, 63, 65} {
		compileAndRun(t, p, gmlv, rvm.Int(n))
	}
}

// dbdsProgram builds the §5.7 shape: two consecutive instanceof checks on
// the same value.
func dbdsProgram(t *testing.T) *rvm.Program {
	t.Helper()
	base := rvm.NewClass("Base", nil)
	derived := rvm.NewClass("Derived", base)
	other := rvm.NewClass("Other", nil)

	a := rvm.NewAsm()
	// main(flag): x = flag ? new Derived : new Other
	a.Load(0).Jump(rvm.OpJumpIfNot, "mkOther")
	a.Sym(rvm.OpNew, "Derived").Store(1)
	a.Jump(rvm.OpJump, "checks")
	a.Label("mkOther")
	a.Sym(rvm.OpNew, "Other").Store(1)
	a.Label("checks")
	a.ConstInt(0).Store(2)
	// if (x instanceof Base) r += 10 else r += 1
	a.Load(1).Sym(rvm.OpInstanceOf, "Base").Jump(rvm.OpJumpIfNot, "no1")
	a.Load(2).ConstInt(10).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "second")
	a.Label("no1")
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Label("second")
	// if (x instanceof Base) r += 100 else r += 2
	a.Load(1).Sym(rvm.OpInstanceOf, "Base").Jump(rvm.OpJumpIfNot, "no2")
	a.Load(2).ConstInt(100).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "done")
	a.Label("no2")
	a.Load(2).ConstInt(2).Op(rvm.OpAdd).Store(2)
	a.Label("done")
	a.Load(2).Op(rvm.OpReturn)
	return mainProgram(t, []*rvm.Class{base, derived, other}, a.MustBuild("main", 1))
}

func TestDBDSEliminatesDominatedCheck(t *testing.T) {
	p := dbdsProgram(t)
	pipe := &Pipeline{
		Passes:   []Pass{{NameDBDS, DuplicateSimulate}, {NameCanonicalize, Canonicalize}, {NameDCE, DeadCodeElim}},
		Disabled: map[string]bool{}, PassTime: Duration0()}
	for _, flag := range []int64{0, 1} {
		prog, stats := compileAndRun(t, p, pipe, rvm.Int(flag))
		f := prog.Funcs["Main.main"]
		if n := countOp(f, ir.OpInstanceOf); n > 2 {
			t.Errorf("instanceof count after DBDS = %d (static)\n%s", n, f)
		}
		if stats.Ops[ir.OpInstanceOf] > 1 {
			t.Errorf("executed %d instanceof, want 1 after duplication", stats.Ops[ir.OpInstanceOf])
		}
	}
}

func TestFullPipelinesAgree(t *testing.T) {
	// Every test program must produce identical results under no
	// pipeline, the baseline pipeline, and the full opt pipeline.
	programs := map[string]*rvm.Program{
		"handle": handlePipelineProgram(t),
		"eawa":   eawaProgram(t),
		"llc":    llcProgram(t),
		"gm":     gmProgram(t),
		"lv":     lvProgram(t),
	}
	acp, _ := acProgram(t)
	programs["ac"] = acp
	for name, p := range programs {
		compileAndRun(t, p, BaselinePipeline(), rvm.Int(37))
		compileAndRun(t, p, OptPipeline(), rvm.Int(37))
		_ = name
	}
	for _, flag := range []int64{0, 1} {
		compileAndRun(t, dbdsProgram(t), OptPipeline(), rvm.Int(flag))
	}
}

func TestPipelineDisable(t *testing.T) {
	p := OptPipeline()
	p.Disable(NameLLC, NameAC)
	if !p.Disabled[NameLLC] || !p.Disabled[NameAC] {
		t.Error("Disable did not record names")
	}
	if s := p.String(); s == "" {
		t.Error("empty pipeline description")
	}
	if len(PaperOptimizations()) != 7 {
		t.Errorf("paper optimizations = %v", PaperOptimizations())
	}
}

func TestPipelineTimingRecorded(t *testing.T) {
	p := llcProgram(t)
	prog, err := ir.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	pipe := OptPipeline()
	pipe.Compile(prog)
	if len(pipe.PassTime) == 0 {
		t.Error("no pass times recorded")
	}
	for _, name := range []string{NameCanonicalize, NameDCE} {
		if _, ok := pipe.PassTime[name]; !ok {
			t.Errorf("missing pass time for %s", name)
		}
	}
}

// TestPipelineIdempotent verifies that recompiling already-optimized IR
// neither changes results nor keeps "improving" them indefinitely — the
// fixpoint property the pipeline's bounded rounds rely on.
func TestPipelineIdempotent(t *testing.T) {
	programs := []*rvm.Program{
		handlePipelineProgram(t), eawaProgram(t), llcProgram(t),
		gmProgram(t), lvProgram(t),
	}
	for _, p := range programs {
		prog, err := ir.BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		OptPipeline().Compile(prog)
		first := ir.NewExec(prog)
		v1, err := first.Run(rvm.Int(40))
		if err != nil {
			t.Fatal(err)
		}
		OptPipeline().Compile(prog) // second compile of the same IR
		second := ir.NewExec(prog)
		v2, err := second.Run(rvm.Int(40))
		if err != nil {
			t.Fatal(err)
		}
		if !v1.Equal(v2) {
			t.Errorf("recompilation changed result: %v -> %v", v1, v2)
		}
		if second.Stats.Cycles > first.Stats.Cycles {
			t.Errorf("recompilation regressed cycles: %d -> %d",
				first.Stats.Cycles, second.Stats.Cycles)
		}
	}
}

// TestPassesNeverIncreaseCycles: each paper optimization, applied on top
// of the cleanup passes, must not slow any of the pattern programs down.
func TestPassesNeverIncreaseCycles(t *testing.T) {
	programs := map[string]*rvm.Program{
		"handle": handlePipelineProgram(t),
		"eawa":   eawaProgram(t),
		"llc":    llcProgram(t),
		"gm":     gmProgram(t),
		"lv":     lvProgram(t),
	}
	acp, _ := acProgram(t)
	programs["ac"] = acp
	for name, p := range programs {
		base := cyclesWith(t, p, BaselinePipeline(), rvm.Int(60))
		full := cyclesWith(t, p, OptPipeline(), rvm.Int(60))
		if full > base {
			t.Errorf("%s: opt pipeline slower than baseline (%d > %d)", name, full, base)
		}
	}
}
