package ir

import (
	"errors"
	"strings"
	"testing"

	"renaissance/internal/rvm"
)

// execOne builds a one-function IR program directly and runs it.
func execOne(t *testing.T, classes []*rvm.Class, build func(f *Func)) (rvm.Value, error) {
	t.Helper()
	f := &Func{Name: "Main.main", NArgs: 0, NRegs: 8}
	b := f.NewBlock()
	f.Entry = b
	build(f)
	prog := &Program{
		Funcs:   map[string]*Func{"Main.main": f},
		Classes: map[string]*rvm.Class{},
		Entry:   "Main.main",
	}
	for _, c := range classes {
		prog.Classes[c.Name] = c
	}
	return NewExec(prog).Run()
}

func ins(op Op, dst, a, b, c Reg) *Instr {
	return &Instr{Op: op, Dst: dst, A: a, B: b, C: c}
}

func TestExecErrNoEntry(t *testing.T) {
	p := &Program{Funcs: map[string]*Func{}, Entry: "nope"}
	if _, err := NewExec(p).Run(); err == nil {
		t.Error("missing entry accepted")
	}
}

func TestExecNullTraps(t *testing.T) {
	cell := rvm.NewClass("Cell", nil, "x")
	cases := []struct {
		name  string
		build func(f *Func)
	}{
		{"getfield", func(f *Func) {
			gf := ins(OpGetField, 1, 0, NoReg, NoReg)
			gf.Sym = "x"
			f.Entry.Code = append(f.Entry.Code, gf)
			f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
		}},
		{"aload", func(f *Func) {
			f.Entry.Code = append(f.Entry.Code, ins(OpALoad, 1, 0, 2, NoReg))
			f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
		}},
		{"astore", func(f *Func) {
			f.Entry.Code = append(f.Entry.Code, ins(OpAStore, NoReg, 0, 1, 2))
			f.Entry.Term = Terminator{Kind: TermReturnVoid, Ret: NoReg, Cond: NoReg}
		}},
		{"arraylen", func(f *Func) {
			f.Entry.Code = append(f.Entry.Code, ins(OpArrayLen, 1, 0, NoReg, NoReg))
			f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
		}},
		{"monitor", func(f *Func) {
			f.Entry.Code = append(f.Entry.Code, ins(OpMonitorEnter, NoReg, 0, NoReg, NoReg))
			f.Entry.Term = Terminator{Kind: TermReturnVoid, Ret: NoReg, Cond: NoReg}
		}},
		{"cas", func(f *Func) {
			cas := ins(OpCAS, 1, 0, 2, 3)
			cas.Sym = "x"
			f.Entry.Code = append(f.Entry.Code, cas)
			f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
		}},
		{"atomicadd", func(f *Func) {
			aa := ins(OpAtomicAdd, 1, 0, 2, NoReg)
			aa.Sym = "x"
			f.Entry.Code = append(f.Entry.Code, aa)
			f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
		}},
		{"callhandle", func(f *Func) {
			ch := ins(OpCallHandle, 1, 0, NoReg, NoReg)
			f.Entry.Code = append(f.Entry.Code, ch)
			f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
		}},
		{"callvirt-null", func(f *Func) {
			cv := ins(OpCallVirt, 1, NoReg, NoReg, NoReg)
			cv.Sym = "m"
			cv.Args = []Reg{0}
			f.Entry.Code = append(f.Entry.Code, cv)
			f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
		}},
	}
	for _, c := range cases {
		_, err := execOne(t, []*rvm.Class{cell}, c.build)
		if !errors.Is(err, rvm.ErrNullPointer) {
			t.Errorf("%s: err = %v, want null pointer", c.name, err)
		}
	}
}

func TestExecMissingSymbols(t *testing.T) {
	_, err := execOne(t, nil, func(f *Func) {
		n := ins(OpNew, 1, NoReg, NoReg, NoReg)
		n.Sym = "Ghost"
		f.Entry.Code = append(f.Entry.Code, n)
		f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
	})
	if !errors.Is(err, rvm.ErrNoSuchClass) {
		t.Errorf("new err = %v", err)
	}

	_, err = execOne(t, []*rvm.Class{rvm.NewClass("Main", nil)}, func(f *Func) {
		call := ins(OpCallStatic, 1, NoReg, NoReg, NoReg)
		call.Sym = "Main.ghost"
		f.Entry.Code = append(f.Entry.Code, call)
		f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
	})
	if !errors.Is(err, rvm.ErrNoSuchMethod) {
		t.Errorf("call err = %v", err)
	}

	cell := rvm.NewClass("Cell", nil, "x")
	_, err = execOne(t, []*rvm.Class{cell}, func(f *Func) {
		n := ins(OpNew, 0, NoReg, NoReg, NoReg)
		n.Sym = "Cell"
		gf := ins(OpGetField, 1, 0, NoReg, NoReg)
		gf.Sym = "missing"
		f.Entry.Code = append(f.Entry.Code, n, gf)
		f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
	})
	if !errors.Is(err, rvm.ErrNoSuchField) {
		t.Errorf("field err = %v", err)
	}

	_, err = execOne(t, nil, func(f *Func) {
		mh := ins(OpMakeHandle, 0, NoReg, NoReg, NoReg)
		mh.Sym = "Ghost.m"
		f.Entry.Code = append(f.Entry.Code, mh)
		f.Entry.Term = Terminator{Kind: TermReturn, Ret: 0, Cond: NoReg}
	})
	if !errors.Is(err, rvm.ErrNoSuchClass) {
		t.Errorf("handle err = %v", err)
	}
}

func TestExecBoundsAndDiv(t *testing.T) {
	_, err := execOne(t, nil, func(f *Func) {
		c := ins(OpConst, 0, NoReg, NoReg, NoReg)
		c.Val = rvm.Int(4)
		arr := ins(OpNewArray, 1, 0, NoReg, NoReg)
		idx := ins(OpConst, 2, NoReg, NoReg, NoReg)
		idx.Val = rvm.Int(9)
		ld := ins(OpALoad, 3, 1, 2, NoReg)
		f.Entry.Code = append(f.Entry.Code, c, arr, idx, ld)
		f.Entry.Term = Terminator{Kind: TermReturn, Ret: 3, Cond: NoReg}
	})
	if !errors.Is(err, rvm.ErrBounds) {
		t.Errorf("bounds err = %v", err)
	}

	_, err = execOne(t, nil, func(f *Func) {
		one := ins(OpConst, 0, NoReg, NoReg, NoReg)
		one.Val = rvm.Int(1)
		zero := ins(OpConst, 1, NoReg, NoReg, NoReg)
		zero.Val = rvm.Int(0)
		div := ins(OpDiv, 2, 0, 1, NoReg)
		f.Entry.Code = append(f.Entry.Code, one, zero, div)
		f.Entry.Term = Terminator{Kind: TermReturn, Ret: 2, Cond: NoReg}
	})
	if !errors.Is(err, rvm.ErrDivByZero) {
		t.Errorf("div err = %v", err)
	}
}

func TestExecFuel(t *testing.T) {
	f := &Func{Name: "Main.main", NArgs: 0, NRegs: 1}
	b := f.NewBlock()
	f.Entry = b
	b.Term = Terminator{Kind: TermJump, To: b, Cond: NoReg, Ret: NoReg}
	prog := &Program{Funcs: map[string]*Func{"Main.main": f}, Entry: "Main.main"}
	e := NewExec(prog)
	e.Fuel = 500
	if _, err := e.Run(); !errors.Is(err, rvm.ErrFuelExhausted) {
		t.Errorf("fuel err = %v", err)
	}
}

func TestExecCheckCastTrap(t *testing.T) {
	x := rvm.NewClass("X", nil)
	y := rvm.NewClass("Y", nil)
	_, err := execOne(t, []*rvm.Class{x, y}, func(f *Func) {
		n := ins(OpNew, 0, NoReg, NoReg, NoReg)
		n.Sym = "X"
		cc := ins(OpCheckCast, 1, 0, NoReg, NoReg)
		cc.Sym = "Y"
		f.Entry.Code = append(f.Entry.Code, n, cc)
		f.Entry.Term = Terminator{Kind: TermReturn, Ret: 1, Cond: NoReg}
	})
	if !errors.Is(err, rvm.ErrBadCast) {
		t.Errorf("cast err = %v", err)
	}
}

func TestInstrStringAndOpName(t *testing.T) {
	in := ins(OpAdd, 1, 2, 3, NoReg)
	if s := in.String(); !strings.Contains(s, "add") || !strings.Contains(s, "r1") {
		t.Errorf("instr string = %q", s)
	}
	if Op(999).String() == "" {
		t.Error("out-of-range op name empty")
	}
	vec := ins(OpVecArith, 1, 2, 3, 4)
	vec.ArithOp = OpMul
	if s := vec.String(); !strings.Contains(s, "vecarith") || !strings.Contains(s, "mul") {
		t.Errorf("vec string = %q", s)
	}
}
