package rvm

import (
	"errors"
	"testing"
)

// buildProgram wires methods into a single class "Main" plus extras.
func buildProgram(t *testing.T, entry *Method, extra ...*Method) *Program {
	t.Helper()
	p := NewProgram()
	main := NewClass("Main", nil)
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

func run(t *testing.T, p *Program, args ...Value) Value {
	t.Helper()
	vm := NewInterp(p)
	v, err := vm.Run(args...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	// return (3 + 4) * 5 - 6 / 2
	a := NewAsm()
	a.ConstInt(3).ConstInt(4).Op(OpAdd).ConstInt(5).Op(OpMul)
	a.ConstInt(6).ConstInt(2).Op(OpDiv).Op(OpSub)
	a.Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 0))
	if v := run(t, p); v.AsInt() != 32 {
		t.Errorf("result = %v, want 32", v)
	}
}

func TestFloatPromotion(t *testing.T) {
	a := NewAsm()
	a.ConstInt(3).ConstFloat(0.5).Op(OpMul).Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 0))
	if v := run(t, p); v.AsFloat() != 1.5 {
		t.Errorf("result = %v, want 1.5", v)
	}
}

func TestDivByZero(t *testing.T) {
	a := NewAsm()
	a.ConstInt(1).ConstInt(0).Op(OpDiv).Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 0))
	_, err := NewInterp(p).Run()
	if !errors.Is(err, ErrDivByZero) {
		t.Errorf("err = %v", err)
	}
}

func TestLoopSum(t *testing.T) {
	// sum = 0; for i = 0..n-1: sum += i; return sum
	a := NewAsm()
	a.ConstInt(0).Store(1) // sum
	a.ConstInt(0).Store(2) // i
	a.Label("head")
	a.Load(2).Load(0).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(1).Load(2).Op(OpAdd).Store(1)
	a.Load(2).ConstInt(1).Op(OpAdd).Store(2)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 1))
	if v := run(t, p, Int(100)); v.AsInt() != 4950 {
		t.Errorf("sum = %v, want 4950", v)
	}
}

func TestObjectsAndFields(t *testing.T) {
	p := NewProgram()
	point := NewClass("Point", nil, "x", "y")
	if err := p.AddClass(point); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Sym(OpNew, "Point").Store(0)
	a.Load(0).ConstInt(7).Sym(OpPutField, "x")
	a.Load(0).ConstInt(35).Sym(OpPutField, "y")
	a.Load(0).Sym(OpGetField, "x").Load(0).Sym(OpGetField, "y").Op(OpAdd).Op(OpReturn)
	m := a.MustBuild("main", 0)
	main := NewClass("Main", nil)
	main.AddMethod(m)
	if err := p.AddClass(main); err != nil {
		t.Fatal(err)
	}
	p.Entry = m
	vm := NewInterp(p)
	v, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 42 {
		t.Errorf("x+y = %v", v)
	}
	if vm.Counters.Object != 1 {
		t.Errorf("object count = %d", vm.Counters.Object)
	}
}

func TestArrays(t *testing.T) {
	// arr = new [10]; arr[3] = 99; return arr[3] + len(arr)
	a := NewAsm()
	a.ConstInt(10).Op(OpNewArray).Store(0)
	a.Load(0).ConstInt(3).ConstInt(99).Op(OpAStore)
	a.Load(0).ConstInt(3).Op(OpALoad)
	a.Load(0).Op(OpArrayLen).Op(OpAdd).Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 0))
	if v := run(t, p); v.AsInt() != 109 {
		t.Errorf("result = %v", v)
	}
}

func TestArrayBoundsTrap(t *testing.T) {
	a := NewAsm()
	a.ConstInt(2).Op(OpNewArray).Store(0)
	a.Load(0).ConstInt(5).Op(OpALoad).Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 0))
	if _, err := NewInterp(p).Run(); !errors.Is(err, ErrBounds) {
		t.Errorf("err = %v", err)
	}
}

func TestNullPointerTrap(t *testing.T) {
	a := NewAsm()
	a.Op(OpConstNull).Sym(OpGetField, "x").Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 0))
	if _, err := NewInterp(p).Run(); !errors.Is(err, ErrNullPointer) {
		t.Errorf("err = %v", err)
	}
}

func TestStaticCall(t *testing.T) {
	sq := NewAsm()
	sq.Load(0).Load(0).Op(OpMul).Op(OpReturn)
	square := sq.MustBuild("square", 1)

	a := NewAsm()
	a.ConstInt(9).Invoke(OpInvokeStatic, "Main.square", 1).Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 0), square)
	if v := run(t, p); v.AsInt() != 81 {
		t.Errorf("square(9) = %v", v)
	}
}

func TestVirtualDispatch(t *testing.T) {
	p := NewProgram()
	animal := NewClass("Animal", nil)
	speakA := NewAsm()
	speakA.ConstInt(1).Op(OpReturn)
	animal.AddMethod(speakA.MustBuild("speak", 1))

	dog := NewClass("Dog", animal)
	speakD := NewAsm()
	speakD.ConstInt(2).Op(OpReturn)
	dog.AddMethod(speakD.MustBuild("speak", 1))

	cat := NewClass("Cat", animal) // inherits Animal.speak

	for _, c := range []*Class{animal, dog, cat} {
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}

	a := NewAsm()
	a.Sym(OpNew, "Dog").Invoke(OpInvokeVirtual, "speak", 1)
	a.Sym(OpNew, "Cat").Invoke(OpInvokeVirtual, "speak", 1)
	a.Op(OpAdd).Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.Entry = m
	vm := NewInterp(p)
	v, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 3 { // Dog override (2) + Cat inherited (1)
		t.Errorf("dispatch sum = %v", v)
	}
	if vm.Counters.Method != 2 {
		t.Errorf("method dispatch count = %d", vm.Counters.Method)
	}
}

func TestInvokeDynamicAndHandle(t *testing.T) {
	double := NewAsm()
	double.Load(0).ConstInt(2).Op(OpMul).Op(OpReturn)

	a := NewAsm()
	a.Sym(OpInvokeDynamic, "Main.double").Store(0) // handle
	a.Load(0).ConstInt(21).Invoke(OpInvokeHandle, "", 1).Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 0), double.MustBuild("double", 1))
	vm := NewInterp(p)
	v, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 42 {
		t.Errorf("handle call = %v", v)
	}
	if vm.Counters.IDynamic != 1 {
		t.Errorf("idynamic count = %d", vm.Counters.IDynamic)
	}
}

func TestMonitorsAndCounters(t *testing.T) {
	p := NewProgram()
	lock := NewClass("Lock", nil)
	if err := p.AddClass(lock); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Sym(OpNew, "Lock").Store(0)
	a.Load(0).Op(OpMonitorEnter)
	a.Load(0).Op(OpMonitorExit)
	a.Load(0).Op(OpWait)
	a.Load(0).Op(OpNotify)
	a.Op(OpPark)
	a.ConstInt(0).Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.Entry = m
	vm := NewInterp(p)
	if _, err := vm.Run(); err != nil {
		t.Fatal(err)
	}
	c := vm.Counters
	if c.Synch != 1 || c.Wait != 1 || c.Notify != 1 || c.Park != 1 {
		t.Errorf("counters = %+v", c)
	}
	if c.Atomic < 2 { // enter + exit lock words
		t.Errorf("atomic = %d", c.Atomic)
	}
}

func TestUnbalancedMonitorExit(t *testing.T) {
	p := NewProgram()
	lock := NewClass("Lock", nil)
	if err := p.AddClass(lock); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Sym(OpNew, "Lock").Op(OpMonitorExit).ConstInt(0).Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	if _, err := NewInterp(p).Run(); !errors.Is(err, ErrBadMonitor) {
		t.Errorf("err = %v", err)
	}
}

func TestCASSemantics(t *testing.T) {
	p := NewProgram()
	cell := NewClass("Cell", nil, "v")
	if err := p.AddClass(cell); err != nil {
		t.Fatal(err)
	}
	a := NewAsm()
	a.Sym(OpNew, "Cell").Store(0)
	a.Load(0).ConstInt(5).Sym(OpPutField, "v")
	// CAS(v, 5, 9) should succeed; CAS(v, 5, 7) should then fail.
	a.Load(0).ConstInt(5).ConstInt(9).Sym(OpCAS, "v").Store(1)
	a.Load(0).ConstInt(5).ConstInt(7).Sym(OpCAS, "v").Store(2)
	// return first*10 + second (expect 10) and v must be 9.
	a.Load(0).Sym(OpGetField, "v").Store(3)
	a.Load(1).ConstInt(100).Op(OpMul).Load(2).ConstInt(10).Op(OpMul).Op(OpAdd).Load(3).Op(OpAdd).Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	vm := NewInterp(p)
	v, err := vm.Run()
	if err != nil {
		t.Fatal(err)
	}
	if v.AsInt() != 109 { // 1*100 + 0*10 + 9
		t.Errorf("result = %v, want 109", v)
	}
	if vm.Counters.Atomic != 2 {
		t.Errorf("atomic = %d", vm.Counters.Atomic)
	}
}

func TestAtomicAdd(t *testing.T) {
	p := NewProgram()
	cell := NewClass("Cell", nil, "v")
	_ = p.AddClass(cell)
	a := NewAsm()
	a.Sym(OpNew, "Cell").Store(0)
	a.Load(0).ConstInt(10).Sym(OpPutField, "v")
	a.Load(0).ConstInt(5).Sym(OpAtomicAdd, "v").Store(1) // old = 10
	a.Load(0).Sym(OpGetField, "v").Load(1).Op(OpAdd).Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	if v := run(t, p); v.AsInt() != 25 { // 15 + 10
		t.Errorf("result = %v", v)
	}
}

func TestInstanceOfAndCast(t *testing.T) {
	p := NewProgram()
	base := NewClass("Base", nil)
	derived := NewClass("Derived", base)
	derived.Interfaces = []string{"Marker"}
	other := NewClass("Other", nil)
	for _, c := range []*Class{base, derived, other} {
		_ = p.AddClass(c)
	}
	a := NewAsm()
	a.Sym(OpNew, "Derived").Store(0)
	a.Load(0).Sym(OpInstanceOf, "Base").Store(1)   // 1
	a.Load(0).Sym(OpInstanceOf, "Other").Store(2)  // 0
	a.Load(0).Sym(OpInstanceOf, "Marker").Store(3) // 1 (interface)
	a.Load(0).Sym(OpCheckCast, "Base").Op(OpPop)
	a.Load(1).ConstInt(100).Op(OpMul).Load(2).ConstInt(10).Op(OpMul).Op(OpAdd).Load(3).Op(OpAdd).Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	if v := run(t, p); v.AsInt() != 101 {
		t.Errorf("result = %v, want 101", v)
	}
}

func TestBadCastTrap(t *testing.T) {
	p := NewProgram()
	x := NewClass("X", nil)
	y := NewClass("Y", nil)
	_ = p.AddClass(x)
	_ = p.AddClass(y)
	a := NewAsm()
	a.Sym(OpNew, "X").Sym(OpCheckCast, "Y").Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	if _, err := NewInterp(p).Run(); !errors.Is(err, ErrBadCast) {
		t.Errorf("err = %v", err)
	}
}

func TestFuelExhaustion(t *testing.T) {
	a := NewAsm()
	a.Label("loop").Jump(OpJump, "loop")
	p := buildProgram(t, a.MustBuild("main", 0))
	vm := NewInterp(p)
	vm.Fuel = 1000
	if _, err := vm.Run(); !errors.Is(err, ErrFuelExhausted) {
		t.Errorf("err = %v", err)
	}
}

func TestRecursionFib(t *testing.T) {
	// fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
	f := NewAsm()
	f.Load(0).ConstInt(2).Op(OpCmpLT).Jump(OpJumpIfNot, "rec")
	f.Load(0).Op(OpReturn)
	f.Label("rec")
	f.Load(0).ConstInt(1).Op(OpSub).Invoke(OpInvokeStatic, "Main.fib", 1)
	f.Load(0).ConstInt(2).Op(OpSub).Invoke(OpInvokeStatic, "Main.fib", 1)
	f.Op(OpAdd).Op(OpReturn)
	fib := f.MustBuild("fib", 1)

	a := NewAsm()
	a.Load(0).Invoke(OpInvokeStatic, "Main.fib", 1).Op(OpReturn)
	p := buildProgram(t, a.MustBuild("main", 1), fib)
	if v := run(t, p, Int(12)); v.AsInt() != 144 {
		t.Errorf("fib(12) = %v", v)
	}
}

func TestUndefinedLabel(t *testing.T) {
	a := NewAsm()
	a.Jump(OpJump, "nowhere")
	if _, err := a.Build("broken", 0); err == nil {
		t.Error("want label error")
	}
}

func TestInterfaceDispatchCheck(t *testing.T) {
	p := NewProgram()
	impl := NewClass("Impl", nil)
	impl.Interfaces = []string{"Runnable"}
	runM := NewAsm()
	runM.ConstInt(7).Op(OpReturn)
	impl.AddMethod(runM.MustBuild("run", 1))
	_ = p.AddClass(impl)

	a := NewAsm()
	a.Sym(OpNew, "Impl").Invoke(OpInvokeInterface, "run", 1).Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	if v := run(t, p); v.AsInt() != 7 {
		t.Errorf("interface call = %v", v)
	}
}

func TestClassHierarchyHelpers(t *testing.T) {
	base := NewClass("B", nil, "f1")
	derived := NewClass("D", base, "f2")
	if len(derived.FieldNames) != 2 {
		t.Errorf("inherited fields = %v", derived.FieldNames)
	}
	if i, ok := derived.FieldIndex("f1"); !ok || i != 0 {
		t.Errorf("f1 index = %d, %v", i, ok)
	}
	if !derived.IsSubclassOf(base) || base.IsSubclassOf(derived) {
		t.Error("subclass relation wrong")
	}
	p := NewProgram()
	_ = p.AddClass(base)
	if err := p.AddClass(base); err == nil {
		t.Error("duplicate class accepted")
	}
}
