package rvm

import (
	"errors"
	"strings"
	"testing"
)

// trap runs a single-method program and returns the error.
func trap(t *testing.T, classes []*Class, code func(a *Asm)) error {
	t.Helper()
	p := NewProgram()
	for _, c := range classes {
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAsm()
	code(a)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.Entry = m
	_, err := NewInterp(p).Run()
	return err
}

func TestTrapNoSuchClass(t *testing.T) {
	err := trap(t, nil, func(a *Asm) { a.Sym(OpNew, "Ghost").Op(OpReturn) })
	if !errors.Is(err, ErrNoSuchClass) {
		t.Errorf("err = %v", err)
	}
}

func TestTrapNoSuchField(t *testing.T) {
	cell := NewClass("Cell", nil, "x")
	err := trap(t, []*Class{cell}, func(a *Asm) {
		a.Sym(OpNew, "Cell").Sym(OpGetField, "missing").Op(OpReturn)
	})
	if !errors.Is(err, ErrNoSuchField) {
		t.Errorf("getfield err = %v", err)
	}
	err = trap(t, []*Class{NewClass("Cell2", nil, "x")}, func(a *Asm) {
		a.Sym(OpNew, "Cell2").ConstInt(1).Sym(OpPutField, "missing").ConstInt(0).Op(OpReturn)
	})
	if !errors.Is(err, ErrNoSuchField) {
		t.Errorf("putfield err = %v", err)
	}
}

func TestTrapNoSuchMethod(t *testing.T) {
	err := trap(t, nil, func(a *Asm) {
		a.Invoke(OpInvokeStatic, "Main.ghost", 0).Op(OpReturn)
	})
	if !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("static err = %v", err)
	}
	base := NewClass("Thing", nil)
	err = trap(t, []*Class{base}, func(a *Asm) {
		a.Sym(OpNew, "Thing").Invoke(OpInvokeVirtual, "ghost", 1).Op(OpReturn)
	})
	if !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("virtual err = %v", err)
	}
	err = trap(t, nil, func(a *Asm) {
		a.Sym(OpInvokeDynamic, "nodots").Op(OpReturn)
	})
	if !errors.Is(err, ErrNoSuchMethod) {
		t.Errorf("bad qualified name err = %v", err)
	}
}

func TestTrapNullTargets(t *testing.T) {
	cases := []func(a *Asm){
		func(a *Asm) { a.Op(OpConstNull).ConstInt(1).Sym(OpPutField, "x").ConstInt(0).Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).ConstInt(0).Op(OpALoad).Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).ConstInt(0).ConstInt(1).Op(OpAStore).ConstInt(0).Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).Op(OpArrayLen).Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).Op(OpMonitorEnter).ConstInt(0).Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).Op(OpMonitorExit).ConstInt(0).Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).Invoke(OpInvokeVirtual, "m", 1).Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).ConstInt(1).ConstInt(2).Sym(OpCAS, "x").Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).ConstInt(1).Sym(OpAtomicAdd, "x").Op(OpReturn) },
		func(a *Asm) { a.Op(OpConstNull).ConstInt(1).Invoke(OpInvokeHandle, "", 1).Op(OpReturn) },
	}
	for i, code := range cases {
		if err := trap(t, nil, code); !errors.Is(err, ErrNullPointer) {
			t.Errorf("case %d: err = %v, want null pointer", i, err)
		}
	}
}

func TestTrapNegativeArraySize(t *testing.T) {
	err := trap(t, nil, func(a *Asm) {
		a.ConstInt(-3).Op(OpNewArray).Op(OpReturn)
	})
	if err == nil || !strings.Contains(err.Error(), "negative array size") {
		t.Errorf("err = %v", err)
	}
}

func TestTrapStackUnderflow(t *testing.T) {
	err := trap(t, nil, func(a *Asm) { a.Op(OpAdd).Op(OpReturn) })
	if !errors.Is(err, ErrVerify) {
		t.Errorf("err = %v", err)
	}
	err = trap(t, nil, func(a *Asm) { a.Op(OpPop).ConstInt(0).Op(OpReturn) })
	if !errors.Is(err, ErrVerify) {
		t.Errorf("pop err = %v", err)
	}
	err = trap(t, nil, func(a *Asm) { a.Op(OpDup).Op(OpReturn) })
	if !errors.Is(err, ErrVerify) {
		t.Errorf("dup err = %v", err)
	}
}

func TestTrapCallDepth(t *testing.T) {
	p := NewProgram()
	a := NewAsm()
	a.Invoke(OpInvokeStatic, "Main.main", 0).Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	_, err := NewInterp(p).Run()
	if err == nil || !strings.Contains(err.Error(), "depth") {
		t.Errorf("err = %v", err)
	}
}

func TestTrapWrongArity(t *testing.T) {
	p := NewProgram()
	callee := NewAsm()
	callee.Load(0).Op(OpReturn)
	one := callee.MustBuild("one", 1)
	a := NewAsm()
	a.Invoke(OpInvokeStatic, "Main.one", 0).Op(OpReturn) // zero args to a 1-arg method
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	mainC.AddMethod(one)
	_ = p.AddClass(mainC)
	p.Entry = m
	_, err := NewInterp(p).Run()
	if err == nil || !strings.Contains(err.Error(), "expects") {
		t.Errorf("err = %v", err)
	}
}

func TestRunWithoutEntry(t *testing.T) {
	p := NewProgram()
	if _, err := NewInterp(p).Run(); err == nil {
		t.Error("run without entry accepted")
	}
}

func TestUnknownOpcode(t *testing.T) {
	m := &Method{Name: "bad", NLocals: 0, Code: []Instr{{Op: Opcode(200)}}}
	p := NewProgram()
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	if _, err := NewInterp(p).Run(); !errors.Is(err, ErrVerify) || !strings.Contains(err.Error(), "unknown opcode") {
		t.Errorf("err = %v", err)
	}
	if got := Opcode(200).String(); !strings.Contains(got, "op(200)") {
		t.Errorf("opcode name = %q", got)
	}
}

func TestValueHelpers(t *testing.T) {
	if !Null().IsNull() || Int(1).IsNull() {
		t.Error("IsNull wrong")
	}
	if Int(3).AsFloat() != 3.0 || Float(2.5).AsInt() != 2 {
		t.Error("conversions wrong")
	}
	if Null().AsInt() != 0 || Null().AsFloat() != 0 {
		t.Error("null conversions wrong")
	}
	if Ref(nil).Kind() != KindNull {
		t.Error("Ref(nil) should be null")
	}
	m := &Method{Name: "f"}
	h := Handle(m)
	if h.AsHandle() != m || !h.Truthy() {
		t.Error("handle accessors wrong")
	}
	if Handle(nil).Truthy() {
		t.Error("nil handle truthy")
	}
	if !Float(0.5).Truthy() || Float(0).Truthy() || !Int(1).Truthy() || Int(0).Truthy() {
		t.Error("numeric truthiness wrong")
	}
	obj := NewObject(NewClass("C", nil))
	if !Ref(obj).Truthy() || Ref(obj).AsRef() != obj {
		t.Error("ref accessors wrong")
	}
	// Equality across kinds.
	if !Int(2).Equal(Float(2.0)) {
		t.Error("numeric cross-kind equality failed")
	}
	if Int(1).Equal(Null()) || !Null().Equal(Null()) {
		t.Error("null equality wrong")
	}
	if !h.Equal(Handle(m)) || h.Equal(Handle(&Method{Name: "g"})) {
		t.Error("handle equality wrong")
	}
	for _, v := range []Value{Int(1), Float(1.5), Null(), h, Ref(obj)} {
		if v.String() == "" {
			t.Error("empty value string")
		}
	}
	if m.QualifiedName() != "f" {
		t.Errorf("classless method name = %q", m.QualifiedName())
	}
}
