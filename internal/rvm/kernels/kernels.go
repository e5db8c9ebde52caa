// Package kernels builds the RVM bytecode kernels used by the compiler
// experiments (Figures 5, 6, 7 and Tables 12–16). The paper measures its
// optimizations on 68 benchmarks across four suites; each kernel here is
// synthesized from a per-benchmark mix of code patterns, where the mix is
// derived from the benchmark's published metric profile (Table 7) and
// optimization response (Tables 12–15):
//
//   - CASRetry — consecutive CAS retry loops (§5.3's shape; responds to AC)
//   - CASSingle — a single CAS retry loop (atomic traffic with no AC fusion)
//   - CASChurn — short-lived objects mutated with CAS (§5.1; responds to EAWA)
//   - SyncLoop — lock/unlock around a small loop body (§5.2; responds to LLC)
//   - SyncScattered — synchronization that LLC cannot legally coarsen
//   - Lambda — method-handle invocation of a lambda (§5.4; responds to MHS)
//   - Bounds — guard-dense array loops (§5.5; responds to GM)
//   - Vector — element-wise array arithmetic (§5.6; responds to GM+LV)
//   - TypeChain — repeated type tests after merges (§5.7; responds to DBDS)
//   - Virtual — megamorphic virtual dispatch (OO baseline behavior)
//   - Alloc — escaping allocation churn (memory pressure)
//   - Events — park / wait / notify traffic (concurrency metrics)
//   - Float — scalar floating-point compute (SPECjvm-like kernels)
//
// DESIGN.md documents this synthesis as the substitution for running the
// original Java workloads on a JVM.
package kernels

import (
	"fmt"

	"renaissance/internal/rvm"
)

// Weights gives the per-pattern iteration counts of one kernel (before
// scaling).
type Weights struct {
	CASRetry      int
	CASSingle     int
	CASChurn      int
	SyncLoop      int
	SyncScattered int
	Lambda        int
	Bounds        int
	Vector        int
	TypeChain     int
	Virtual       int
	Alloc         int
	Events        int
	Float         int
	// Framework simulates framework/library code: FrameworkDepth distinct
	// medium-sized methods (too big to inline) dispatched round-robin for
	// Framework iterations. Application-class suites (Renaissance, DaCapo,
	// ScalaBench) execute far more distinct hot methods than the SPECjvm
	// kernels — the Figure 7 and Table 5 contrast.
	Framework      int
	FrameworkDepth int
}

// Spec names one benchmark kernel.
type Spec struct {
	Name  string
	Suite string
	W     Weights
}

// Build synthesizes the kernel program for the spec. The scale multiplies
// every pattern's iteration count (scale 1 yields a kernel of roughly
// 10^5 executed IR instructions).
func Build(spec Spec, scale int) (*rvm.Program, error) {
	if scale < 1 {
		scale = 1
	}
	p := rvm.NewProgram()
	for _, c := range supportClasses() {
		if err := p.AddClass(c); err != nil {
			return nil, err
		}
	}

	main := rvm.NewClass("Main", nil)
	addLambda(main)

	type patternCall struct {
		method string
		iters  int
	}
	var calls []patternCall
	addPattern := func(name string, weight int, build func(n int) *rvm.Method) {
		if weight <= 0 {
			return
		}
		n := weight * scale
		m := build(n)
		main.AddMethod(m)
		calls = append(calls, patternCall{m.Name, n})
	}

	w := spec.W
	addPattern("casRetry", w.CASRetry, buildCASRetry)
	addPattern("casSingle", w.CASSingle, buildCASSingle)
	addPattern("casChurn", w.CASChurn, buildCASChurn)
	addPattern("syncLoop", w.SyncLoop, buildSyncLoop)
	addPattern("syncScattered", w.SyncScattered, buildSyncScattered)
	addPattern("lambda", w.Lambda, buildLambda)
	addPattern("bounds", w.Bounds, buildBounds)
	addPattern("vector", w.Vector, buildVector)
	addPattern("typeChain", w.TypeChain, buildTypeChain)
	addPattern("virtual", w.Virtual, buildVirtual)
	addPattern("alloc", w.Alloc, buildAlloc)
	addPattern("events", w.Events, buildEvents)
	addPattern("floatk", w.Float, buildFloat)
	if w.Framework > 0 && w.FrameworkDepth > 0 {
		for _, m := range buildFrameworkMethods(w.FrameworkDepth) {
			main.AddMethod(m)
		}
		drv := buildFrameworkDriver(w.FrameworkDepth)
		main.AddMethod(drv)
		calls = append(calls, patternCall{drv.Name, w.Framework * scale})
	}
	if len(calls) == 0 {
		return nil, fmt.Errorf("kernels: %s/%s has no pattern weights", spec.Suite, spec.Name)
	}

	// main: checksum = sum of the pattern results.
	a := rvm.NewAsm()
	a.ConstInt(0).Store(0)
	for _, c := range calls {
		a.Load(0)
		a.ConstInt(int64(c.iters))
		a.Invoke(rvm.OpInvokeStatic, "Main."+c.method, 1)
		a.Op(rvm.OpAdd)
		a.Store(0)
	}
	a.Load(0).Op(rvm.OpReturn)
	entry := a.MustBuild("main", 0)
	main.AddMethod(entry)

	if err := p.AddClass(main); err != nil {
		return nil, err
	}
	p.Entry = entry
	return p, nil
}

// supportClasses returns the class library the patterns use.
func supportClasses() []*rvm.Class {
	cell := rvm.NewClass("Cell", nil, "x")
	counter := rvm.NewClass("Counter", nil, "x")
	lock := rvm.NewClass("Lock", nil, "v")
	box := rvm.NewClass("Box", nil, "payload")

	base := rvm.NewClass("Base", nil)
	bm := rvm.NewAsm()
	bm.Load(1).ConstInt(1).Op(rvm.OpAdd).Op(rvm.OpReturn)
	base.AddMethod(bm.MustBuild("work", 2))

	derived := rvm.NewClass("Derived", base)
	dm := rvm.NewAsm()
	dm.Load(1).ConstInt(2).Op(rvm.OpMul).Op(rvm.OpReturn)
	derived.AddMethod(dm.MustBuild("work", 2))

	other := rvm.NewClass("Other", nil)
	om := rvm.NewAsm()
	om.Load(1).ConstInt(3).Op(rvm.OpAdd).Op(rvm.OpReturn)
	other.AddMethod(om.MustBuild("work", 2))

	return []*rvm.Class{cell, counter, lock, box, base, derived, other}
}

// addLambda installs the lambda body that the Lambda pattern invokes
// through a method handle: x*3 + 1 (cheap enough that call overhead
// dominates, as in the paper's scrabble histogram lambda).
func addLambda(main *rvm.Class) {
	l := rvm.NewAsm()
	l.Load(0).ConstInt(3).Op(rvm.OpMul).ConstInt(1).Op(rvm.OpAdd).Op(rvm.OpReturn)
	m := l.MustBuild("lambdaBody", 1)
	main.AddMethod(m)
}

// buildCASRetry emits the §5.3 shape: an outer loop running two
// consecutive CAS retry loops on a shared cell (x = x*3, then x = x+1).
func buildCASRetry(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Cell").Store(1)
	a.Load(1).ConstInt(1).Sym(rvm.OpPutField, "x")
	a.ConstInt(0).Store(2)
	a.Label("outer")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Label("retry1")
	a.Load(1).Sym(rvm.OpGetField, "x").Store(3)
	a.Load(3).ConstInt(3).Op(rvm.OpMul).ConstInt(1000000007).Op(rvm.OpRem).Store(4)
	a.Load(1).Load(3).Load(4).Sym(rvm.OpCAS, "x").Jump(rvm.OpJumpIfNot, "retry1")
	a.Label("retry2")
	a.Load(1).Sym(rvm.OpGetField, "x").Store(5)
	a.Load(5).ConstInt(1).Op(rvm.OpAdd).Store(6)
	a.Load(1).Load(5).Load(6).Sym(rvm.OpCAS, "x").Jump(rvm.OpJumpIfNot, "retry2")
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "outer")
	a.Label("exit")
	a.Load(1).Sym(rvm.OpGetField, "x").Op(rvm.OpReturn)
	return a.MustBuild("casRetry", 1)
}

// buildCASSingle emits one CAS retry loop per outer iteration — atomic
// traffic that AC cannot fuse (there is no adjacent second loop).
func buildCASSingle(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Cell").Store(1)
	a.Load(1).ConstInt(7).Sym(rvm.OpPutField, "x")
	a.ConstInt(0).Store(2)
	a.Label("outer")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Label("retry")
	a.Load(1).Sym(rvm.OpGetField, "x").Store(3)
	a.Load(3).ConstInt(5).Op(rvm.OpMul).ConstInt(999983).Op(rvm.OpRem).Store(4)
	a.Load(1).Load(3).Load(4).Sym(rvm.OpCAS, "x").Jump(rvm.OpJumpIfNot, "retry")
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "outer")
	a.Label("exit")
	a.Load(1).Sym(rvm.OpGetField, "x").Op(rvm.OpReturn)
	return a.MustBuild("casSingle", 1)
}

// buildCASChurn emits the §5.1 shape: a fresh counter object per
// iteration, initialized, CASed twice, locked once, and discarded — the
// java.util.Random / Promise usage pattern EAWA scalar-replaces.
func buildCASChurn(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.ConstInt(0).Store(1) // acc
	a.ConstInt(0).Store(2) // i
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Sym(rvm.OpNew, "Counter").Store(3)
	a.Load(3).ConstInt(0).Sym(rvm.OpPutField, "x")
	a.Load(3).ConstInt(0).ConstInt(7).Sym(rvm.OpCAS, "x").Op(rvm.OpPop)
	a.Load(3).ConstInt(7).ConstInt(9).Sym(rvm.OpCAS, "x").Op(rvm.OpPop)
	a.Load(3).Op(rvm.OpMonitorEnter)
	a.Load(3).Sym(rvm.OpGetField, "x").Load(1).Op(rvm.OpAdd).Store(1)
	a.Load(3).Op(rvm.OpMonitorExit)
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(rvm.OpReturn)
	return a.MustBuild("casChurn", 1)
}

// buildSyncLoop emits the §5.2 shape: every iteration locks the same
// monitor around a tiny critical region (the synchronized-collection-in-a-
// loop pattern), which LLC tiles into chunks of C iterations.
func buildSyncLoop(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Lock").Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).Op(rvm.OpMonitorEnter)
	a.Load(1).Load(1).Sym(rvm.OpGetField, "v").Load(2).Op(rvm.OpAdd).Sym(rvm.OpPutField, "v")
	a.Load(1).Op(rvm.OpMonitorExit)
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Sym(rvm.OpGetField, "v").Op(rvm.OpReturn)
	return a.MustBuild("syncLoop", 1)
}

// buildSyncScattered takes the same lock but calls a helper inside the
// critical region, which LLC must refuse to coarsen (calls may acquire
// other locks — the paper's legality side condition).
func buildSyncScattered(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Lock").Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).Op(rvm.OpMonitorEnter)
	a.Load(1).Load(1).Sym(rvm.OpGetField, "v").Load(2).Invoke(rvm.OpInvokeStatic, "Main.lambdaBody", 1).Op(rvm.OpAdd).Sym(rvm.OpPutField, "v")
	a.Load(1).Op(rvm.OpMonitorExit)
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Sym(rvm.OpGetField, "v").Op(rvm.OpReturn)
	return a.MustBuild("syncScattered", 1)
}

// buildLambda emits the §5.4 shape: an invokedynamic bootstrap produces a
// method handle that the loop invokes per element — MHS devirtualizes the
// handle call and inlining absorbs the lambda body.
func buildLambda(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.Sym(rvm.OpInvokeDynamic, "Main.lambdaBody").Store(1)
	a.ConstInt(0).Store(2) // acc
	a.ConstInt(0).Store(3) // i
	a.Label("head")
	a.Load(3).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(2).Load(1).Load(3).Invoke(rvm.OpInvokeHandle, "", 1).Op(rvm.OpAdd)
	a.ConstInt(1000000007).Op(rvm.OpRem).Store(2)
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	return a.MustBuild("lambda", 1)
}

// boundsArrayLen is the array length of the Bounds pattern; its loop runs
// n/boundsArrayLen full passes so the executed guard count tracks n.
const boundsArrayLen = 64

// buildBounds emits the §5.5 shape: array writes and reads with a bounds
// guard on every access, inside a counted loop — GM hoists the guards to
// the range endpoints.
func buildBounds(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.ConstInt(boundsArrayLen).Op(rvm.OpNewArray).Store(1)
	a.ConstInt(0).Store(2) // s
	a.ConstInt(0).Store(3) // outer counter
	a.Label("outer")
	a.Load(3).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.ConstInt(0).Store(4)
	a.Label("inner")
	a.Load(4).ConstInt(boundsArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "innerDone")
	a.Load(1).Load(4).Load(4).Load(3).Op(rvm.OpAdd).Op(rvm.OpAStore)
	a.Load(2).Load(1).Load(4).Op(rvm.OpALoad).Op(rvm.OpAdd).Store(2)
	a.Load(4).ConstInt(1).Op(rvm.OpAdd).Store(4)
	a.Jump(rvm.OpJump, "inner")
	a.Label("innerDone")
	a.Load(3).ConstInt(64).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "outer")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	return a.MustBuild("bounds", 1)
}

// vectorArrayLen is the array length of the Vector pattern.
const vectorArrayLen = 128

// buildVector emits the §5.6 shape: c[i] = a[i] + b[i] over fixed arrays,
// repeated n/vectorArrayLen times. GM must hoist the guards before LV can
// replace the loop with 4-lane vector operations.
func buildVector(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.ConstInt(vectorArrayLen).Op(rvm.OpNewArray).Store(1)
	a.ConstInt(vectorArrayLen).Op(rvm.OpNewArray).Store(2)
	a.ConstInt(vectorArrayLen).Op(rvm.OpNewArray).Store(3)
	// Fill a and b once.
	a.ConstInt(0).Store(4)
	a.Label("fill")
	a.Load(4).ConstInt(vectorArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "fillDone")
	a.Load(1).Load(4).Load(4).Op(rvm.OpAStore)
	a.Load(2).Load(4).Load(4).ConstInt(2).Op(rvm.OpMul).Op(rvm.OpAStore)
	a.Load(4).ConstInt(1).Op(rvm.OpAdd).Store(4)
	a.Jump(rvm.OpJump, "fill")
	a.Label("fillDone")
	// Repeat the element-wise kernel.
	a.ConstInt(0).Store(5)
	a.Label("outer")
	a.Load(5).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "sum")
	a.ConstInt(0).Store(6)
	a.Label("vec")
	a.Load(6).ConstInt(vectorArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "vecDone")
	a.Load(3).Load(6).Load(1).Load(6).Op(rvm.OpALoad).Load(2).Load(6).Op(rvm.OpALoad).Op(rvm.OpAdd).Op(rvm.OpAStore)
	a.Load(6).ConstInt(1).Op(rvm.OpAdd).Store(6)
	a.Jump(rvm.OpJump, "vec")
	a.Label("vecDone")
	a.Load(5).ConstInt(128).Op(rvm.OpAdd).Store(5)
	a.Jump(rvm.OpJump, "outer")
	// Checksum pass over c.
	a.Label("sum")
	a.ConstInt(0).Store(7)
	a.ConstInt(0).Store(8)
	a.Label("sumLoop")
	a.Load(8).ConstInt(vectorArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(7).Load(3).Load(8).Op(rvm.OpALoad).Op(rvm.OpAdd).Store(7)
	a.Load(8).ConstInt(1).Op(rvm.OpAdd).Store(8)
	a.Jump(rvm.OpJump, "sumLoop")
	a.Label("exit")
	a.Load(7).Op(rvm.OpReturn)
	return a.MustBuild("vector", 1)
}

// buildTypeChain emits the §5.7 shape: per iteration, an object of
// alternating dynamic type flows through two consecutive
// instanceof-guarded diamonds; DBDS duplicates the merge and removes the
// dominated test.
func buildTypeChain(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Derived").Store(1)
	a.Sym(rvm.OpNew, "Other").Store(2)
	a.ConstInt(0).Store(3) // acc
	a.ConstInt(0).Store(4) // i
	a.Label("head")
	a.Load(4).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	// x = (i % 2 == 0) ? derived : other
	a.Load(4).ConstInt(2).Op(rvm.OpRem).Jump(rvm.OpJumpIf, "odd")
	a.Load(1).Store(5)
	a.Jump(rvm.OpJump, "checks")
	a.Label("odd")
	a.Load(2).Store(5)
	a.Label("checks")
	// A chain of instanceof-guarded diamonds on the same value: every
	// check after the first is dominated, so DBDS folds the whole chain
	// into the two arms of the leading test (the abstraction-dispatch
	// shape the paper attributes to streams-mnemonics).
	const diamonds = 6
	for d := 0; d < diamonds; d++ {
		no := fmt.Sprintf("no%d", d)
		next := fmt.Sprintf("dia%d", d+1)
		a.Load(5).Sym(rvm.OpInstanceOf, "Base").Jump(rvm.OpJumpIfNot, no)
		a.Load(3).ConstInt(int64(10 * (d + 1))).Op(rvm.OpAdd).Store(3)
		a.Jump(rvm.OpJump, next)
		a.Label(no)
		a.Load(3).ConstInt(int64(d + 1)).Op(rvm.OpAdd).Store(3)
		a.Label(next)
	}
	a.Label("latch")
	a.Load(4).ConstInt(1).Op(rvm.OpAdd).Store(4)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(3).Op(rvm.OpReturn)
	return a.MustBuild("typeChain", 1)
}

// buildVirtual emits a dispatch-heavy loop: two calls per iteration on
// receivers of different dynamic types (the OO abstraction cost the
// DaCapo-like workloads carry).
func buildVirtual(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Derived").Store(1)
	a.Sym(rvm.OpNew, "Other").Store(2)
	a.ConstInt(0).Store(3)
	a.ConstInt(0).Store(4)
	a.Label("head")
	a.Load(4).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(3).Load(1).Load(4).Invoke(rvm.OpInvokeVirtual, "work", 2).Op(rvm.OpAdd)
	a.Load(2).Load(4).Invoke(rvm.OpInvokeVirtual, "work", 2).Op(rvm.OpAdd)
	a.ConstInt(1000000007).Op(rvm.OpRem).Store(3)
	a.Load(4).ConstInt(1).Op(rvm.OpAdd).Store(4)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(3).Op(rvm.OpReturn)
	return a.MustBuild("virtual", 1)
}

// allocRingLen is the ring size of the Alloc pattern.
const allocRingLen = 16

// buildAlloc emits escaping allocation churn: every iteration allocates a
// box and an array, publishes the box into a ring (so escape analysis
// must keep it), and reads an older element back.
func buildAlloc(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.ConstInt(allocRingLen).Op(rvm.OpNewArray).Store(1)
	a.ConstInt(0).Store(2) // acc
	a.ConstInt(0).Store(3) // i
	a.Label("head")
	a.Load(3).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Sym(rvm.OpNew, "Box").Store(4)
	a.Load(4).Load(3).Sym(rvm.OpPutField, "payload")
	a.Load(1).Load(3).ConstInt(allocRingLen).Op(rvm.OpRem).Load(4).Op(rvm.OpAStore)
	a.ConstInt(8).Op(rvm.OpNewArray).Store(5) // transient array
	a.Load(5).ConstInt(0).Load(3).Op(rvm.OpAStore)
	a.Load(5).ConstInt(0).Op(rvm.OpALoad).Load(2).Op(rvm.OpAdd).Store(2)
	a.Load(1).Load(3).ConstInt(allocRingLen).Op(rvm.OpRem).Op(rvm.OpALoad).Sym(rvm.OpCheckCast, "Box").Sym(rvm.OpGetField, "payload").Load(2).Op(rvm.OpAdd)
	a.ConstInt(1000000007).Op(rvm.OpRem).Store(2)
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	return a.MustBuild("alloc", 1)
}

// buildEvents emits park / wait / notify traffic on a lock object — the
// guarded-block and parking behavior of actor and STM runtimes.
func buildEvents(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.Sym(rvm.OpNew, "Lock").Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).Op(rvm.OpMonitorEnter)
	a.Load(1).Op(rvm.OpWait)
	a.Load(1).Op(rvm.OpNotify)
	a.Load(1).Op(rvm.OpMonitorExit)
	a.Op(rvm.OpPark)
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	return a.MustBuild("events", 1)
}

// buildFloat emits a scalar floating-point recurrence (the SPECjvm-like
// compute-bound profile: high CPU, few objects).
func buildFloat(n int) *rvm.Method {
	a := rvm.NewAsm()
	a.ConstFloat(1.0).Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).ConstFloat(1.0000001).Op(rvm.OpMul).ConstFloat(0.0000001).Op(rvm.OpAdd).Store(1)
	a.Load(1).ConstFloat(2.0).Op(rvm.OpCmpGT).Jump(rvm.OpJumpIfNot, "cont")
	a.Load(1).ConstFloat(2.0).Op(rvm.OpDiv).Store(1)
	a.Label("cont")
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).ConstFloat(1000000).Op(rvm.OpMul).Op(rvm.OpReturn)
	return a.MustBuild("floatk", 1)
}

// buildFrameworkMethods emits depth distinct arithmetic-heavy methods,
// each above the inlining size threshold so every one stays a separate
// compilation unit (hot method).
func buildFrameworkMethods(depth int) []*rvm.Method {
	out := make([]*rvm.Method, 0, depth)
	for i := 0; i < depth; i++ {
		a := rvm.NewAsm()
		a.Load(0).Store(1)
		// A body of ~30 dependent operations with method-specific
		// constants: big enough to defeat inlining, cheap enough to stay
		// a realistic library routine.
		for k := 0; k < 15; k++ {
			a.Load(1).ConstInt(int64(i*31 + k + 3)).Op(rvm.OpMul)
			a.ConstInt(int64(k + 1)).Op(rvm.OpAdd)
			a.ConstInt(1000000007).Op(rvm.OpRem).Store(1)
		}
		a.Load(1).Op(rvm.OpReturn)
		out = append(out, a.MustBuild(fmt.Sprintf("fw%d", i), 1))
	}
	return out
}

// buildFrameworkDriver dispatches the framework methods round-robin.
func buildFrameworkDriver(depth int) *rvm.Method {
	a := rvm.NewAsm()
	a.ConstInt(0).Store(1) // acc
	a.ConstInt(0).Store(2) // i
	a.Label("head")
	a.Load(2).Load(0).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	// Select fw[i % depth] with a dispatch ladder.
	a.Load(2).ConstInt(int64(depth)).Op(rvm.OpRem).Store(3)
	for i := 0; i < depth; i++ {
		next := fmt.Sprintf("not%d", i)
		a.Load(3).ConstInt(int64(i)).Op(rvm.OpCmpEQ).Jump(rvm.OpJumpIfNot, next)
		a.Load(1).Load(2).Invoke(rvm.OpInvokeStatic, fmt.Sprintf("Main.fw%d", i), 1).Op(rvm.OpAdd)
		a.ConstInt(1000000007).Op(rvm.OpRem).Store(1)
		a.Jump(rvm.OpJump, "cont")
		a.Label(next)
	}
	a.Label("cont")
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(rvm.OpReturn)
	return a.MustBuild("framework", 1)
}
