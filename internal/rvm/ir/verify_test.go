package ir

import (
	"errors"
	"math"
	"testing"

	"renaissance/internal/rvm"
)

// TestControlFlowLeavingCodeReturnsVoid: a jump target or fall-through
// outside [0, len(Code)) is an implicit void return on every engine,
// including a conditional branch with no instruction after it.
func TestControlFlowLeavingCodeReturnsVoid(t *testing.T) {
	for _, tc := range []struct {
		name string
		code []rvm.Instr
		args []int64
	}{
		{"jump-out-of-range", []rvm.Instr{{Op: rvm.OpJump, A: 99}}, []int64{0}},
		{"negative-branch-target", []rvm.Instr{
			{Op: rvm.OpLoad, A: 0}, {Op: rvm.OpJumpIf, A: -1}, {Op: rvm.OpReturnVoid},
		}, []int64{0, 1}},
		{"branch-is-last", []rvm.Instr{{Op: rvm.OpLoad, A: 0}, {Op: rvm.OpJumpIf, A: 0}}, []int64{0}},
	} {
		for _, arg := range tc.args {
			m := &rvm.Method{Name: "main", NArgs: 1, NLocals: 1, Code: tc.code}
			v, _ := buildAndExec(t, mainProgram(t, m), rvm.Int(arg))
			if !v.IsNull() {
				t.Errorf("%s(%d) = %v, want null", tc.name, arg, v)
			}
		}
	}
}

// fuzzSyms are the symbols a decoded instruction may name: methods,
// classes and fields of the fuzz program, and unresolvable ones.
var fuzzSyms = []string{"C.m0", "C.m1", "C", "D", "x", "y", "m0", "m1", "Nope.m", "C.nope", "nodot"}

// fuzzArgs are the entry-argument values, picked by the entry header.
var fuzzArgs = []rvm.Value{rvm.Int(0), rvm.Int(3), rvm.Float(-1.5), rvm.Null()}

// decodeFuzzProgram turns fuzz bytes into a program of class C (field x)
// and its subclass D (field y), whose one or two methods m0 (the entry)
// and m1 are decoded as
//
//	header byte: NLocals = h&7, NArgs = (h>>3)&3 capped at NLocals,
//	             entry arguments start at fuzzArgs[(h>>5)&3]
//	instructions, 3 bytes each: opcode (mod 48, so two are unknown),
//	             A (int8: negative and out-of-range slots, targets and
//	             argument counts), immediate (int8 constant, symbol index)
//	an opcode byte 0xff ends m0; the next byte is m1's header.
//
// NewArray is always preceded by a ConstInt length in [-15, 15] and
// jumps to it land on that ConstInt, so no run allocates a huge array.
func decodeFuzzProgram(data []byte) (*rvm.Program, []rvm.Value) {
	c := rvm.NewClass("C", nil, "x")
	d := rvm.NewClass("D", c, "y")
	var args []rvm.Value
	for i := 0; i == 0 || i < 2 && len(data) > 0; i++ {
		var h byte
		if len(data) > 0 {
			h, data = data[0], data[1:]
		}
		m := &rvm.Method{Name: [...]string{"m0", "m1"}[i], NLocals: int(h & 7)}
		m.NArgs = min(int(h>>3&3), m.NLocals)
		if i == 0 {
			for k := range m.NArgs {
				args = append(args, fuzzArgs[(int(h>>5&3)+k)%len(fuzzArgs)])
			}
		}
		for len(data) >= 3 && len(m.Code) < 64 {
			op, a, imm := data[0], int(int8(data[1])), int8(data[2])
			data = data[3:]
			if op == 0xff {
				break
			}
			in := rvm.Instr{Op: rvm.Opcode(op % 48), A: a, I: int64(imm), F: float64(imm) / 4,
				S: fuzzSyms[int(uint8(imm))%len(fuzzSyms)]}
			if in.Op == rvm.OpNewArray {
				m.Code = append(m.Code, rvm.Instr{Op: rvm.OpConstInt, I: int64(imm % 16)})
			}
			m.Code = append(m.Code, in)
		}
		for pc, in := range m.Code {
			switch in.Op {
			case rvm.OpJump, rvm.OpJumpIf, rvm.OpJumpIfNot:
				if in.A >= 0 && in.A < len(m.Code) && m.Code[in.A].Op == rvm.OpNewArray {
					m.Code[pc].A--
				}
			}
		}
		c.AddMethod(m)
	}
	p := rvm.NewProgram()
	for _, k := range []*rvm.Class{c, d} {
		if err := p.AddClass(k); err != nil {
			panic(err)
		}
	}
	p.Entry = c.Methods["m0"]
	return p, args
}

// sentinel reduces an engine error to the exported error it wraps (nil
// for success, errOther for an error that wraps none).
var errOther = errors.New("unsentinelled error")

func sentinel(err error) error {
	if err == nil {
		return nil
	}
	for _, s := range []error{rvm.ErrNullPointer, rvm.ErrBounds, rvm.ErrDivByZero, rvm.ErrNoSuchMethod,
		rvm.ErrNoSuchField, rvm.ErrNoSuchClass, rvm.ErrBadCast, rvm.ErrFuelExhausted, rvm.ErrBadMonitor,
		rvm.ErrVerify, ErrDeopt} {
		if errors.Is(err, s) {
			return s
		}
	}
	return errOther
}

// sameValue compares results across engines: objects are distinct per
// run, so references compare by class only.
func sameValue(a, b rvm.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case rvm.KindFloat:
		return math.Float64bits(a.AsFloat()) == math.Float64bits(b.AsFloat()) ||
			math.IsNaN(a.AsFloat()) && math.IsNaN(b.AsFloat())
	case rvm.KindRef:
		return a.AsRef().Class == b.AsRef().Class
	}
	return a.Equal(b)
}

// FuzzVerify checks that "verified" means the same thing to every
// consumer of RVM bytecode. For a program the verifier accepts, tier-0,
// tier-1 and the IR executor agree on the result and on the trap's
// sentinel, tier-0 and tier-1 agree on every counter, and BuildProgram
// does not panic. For a program it refuses, BuildProgram refuses with
// ErrVerify, and so do both interpreter tiers when the refused method is
// the entry.
//
// Two engine differences are outside the contract: the IR executor
// charges fuel per IR instruction (runs that exhaust the interpreters'
// fuel are not compared with it), and it does not track monitor
// balance, so an unbalanced monitorexit traps only in the interpreters.
// A failing IR guard deoptimizes (ErrDeopt) where the interpreters
// report the null or bounds trap the guard stands for.
//
// The seed corpus (testdata/fuzz/FuzzVerify) holds the three control-flow
// programs of TestControlFlowLeavingCodeReturnsVoid and the inputs that
// found the engine disagreements fixed alongside this fuzzer.
func FuzzVerify(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, args := decodeFuzzProgram(data)
		var refused error
		for _, m := range p.Methods() {
			if _, _, _, err := rvm.Verify(m); err != nil {
				if !errors.Is(err, rvm.ErrVerify) {
					t.Fatalf("Verify(%s) = %v, not ErrVerify", m.QualifiedName(), err)
				}
				refused = err
			}
		}
		prog, berr := BuildProgram(p)
		if refused != nil && !errors.Is(berr, rvm.ErrVerify) {
			t.Fatalf("verifier refused (%v) but BuildProgram returned %v", refused, berr)
		}
		if refused == nil && berr != nil {
			t.Fatalf("BuildProgram refused a verified program: %v", berr)
		}

		const fuel = 20_000
		var vs [2]rvm.Value
		var errs [2]error
		var cs [2]rvm.Counters
		for i, tier := range []rvm.TierPolicy{rvm.TierBaseline, rvm.TierQuick} {
			vm := rvm.NewInterp(p)
			vm.Tier, vm.Fuel = tier, fuel
			vs[i], errs[i] = vm.Run(args...)
			cs[i] = vm.Counters
		}
		if _, _, _, err := rvm.Verify(p.Entry); err != nil {
			if !errors.Is(errs[0], rvm.ErrVerify) || !errors.Is(errs[1], rvm.ErrVerify) {
				t.Fatalf("entry refused (%v) but tiers returned %v / %v", err, errs[0], errs[1])
			}
		}
		if sentinel(errs[0]) != sentinel(errs[1]) {
			t.Fatalf("tier-0 err %v, tier-1 err %v", errs[0], errs[1])
		}
		if errs[0] == nil && !sameValue(vs[0], vs[1]) {
			t.Fatalf("tier-0 = %v, tier-1 = %v", vs[0], vs[1])
		}
		if cs[0] != cs[1] {
			t.Fatalf("counters diverged:\n tier-0 %+v\n tier-1 %+v", cs[0], cs[1])
		}

		if prog == nil || errors.Is(errs[0], rvm.ErrFuelExhausted) || errors.Is(errs[0], rvm.ErrBadMonitor) {
			return
		}
		e := NewExec(prog)
		e.Fuel = 20 * fuel
		v, err := e.Run(args...)
		want, got := sentinel(errs[0]), sentinel(err)
		if got == ErrDeopt && (want == rvm.ErrNullPointer || want == rvm.ErrBounds) {
			return
		}
		if want != got {
			t.Fatalf("tier-0 err %v, IR err %v", errs[0], err)
		}
		if err == nil && !sameValue(vs[0], v) {
			t.Fatalf("tier-0 = %v, IR = %v", vs[0], v)
		}
	})
}
