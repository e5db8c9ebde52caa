package rvm

import (
	"errors"
	"fmt"
	"strings"
)

// Interpreter errors (VM traps).
var (
	ErrNullPointer   = errors.New("rvm: null pointer")
	ErrBounds        = errors.New("rvm: array index out of bounds")
	ErrDivByZero     = errors.New("rvm: division by zero")
	ErrNoSuchMethod  = errors.New("rvm: method not found")
	ErrNoSuchField   = errors.New("rvm: field not found")
	ErrNoSuchClass   = errors.New("rvm: class not found")
	ErrBadCast       = errors.New("rvm: bad cast")
	ErrFuelExhausted = errors.New("rvm: execution fuel exhausted")
	ErrBadMonitor    = errors.New("rvm: unbalanced monitor exit")
	// ErrVerify is wrapped by every bytecode verification failure (see
	// Verify); invoking an unverifiable method traps with it.
	ErrVerify = errors.New("rvm: bytecode verification failed")
)

// Counters are the dynamic event counts of one execution, matching the
// paper's Table 2 instrumentation categories. They are tier-invariant:
// tier-1 superinstructions bump Executed once per fused original
// instruction (staged so traps observe tier-0's count-before-execute
// value) and inline-cache hits still bump Method, so the same program
// produces the same Counters at every tier. The one deliberate
// divergence is where ErrFuelExhausted fires: fuel is charged per basic
// block, so exhaustion lands within one block of the per-instruction
// budget (see DESIGN.md §10).
type Counters struct {
	Executed int64 // total instructions
	Synch    int64 // monitor enters
	Wait     int64
	Notify   int64
	Atomic   int64 // CAS + atomic add + monitor lock-word operations
	Park     int64
	Object   int64
	Array    int64
	Method   int64 // virtual/interface/handle dispatches
	IDynamic int64 // invokedynamic executions
}

// Interp executes bytecode with reference semantics. It is sequential: the
// concurrency opcodes have their single-threaded semantics (a CAS on a
// private object always succeeds, monitors recursion-count) and are fully
// accounted in Counters; the cost model in rvm/ir charges their real
// expense. This mirrors the paper's soundness arguments, which reason about
// single-thread observable effects (§5).
//
// Execution is tiered (see profile.go): verified methods run on pooled
// flat frames with block-granularity fuel (tier-0); under TierAuto hot
// methods are quickened to superinstruction dispatch with inline caches
// (tier-1), entered either at the next invocation or mid-loop by on-stack
// replacement. Every method is verified (Verify) once per interpreter, at
// its first invocation; one that fails never runs, and each invocation
// traps with the verifier's ErrVerify error. All tiering state is
// per-interpreter, so concurrent interpreters may share one Program.
type Interp struct {
	Program *Program
	// Fuel bounds the number of executed instructions (0 = default 200M).
	Fuel int64
	// MaxDepth bounds the call stack (0 = 512).
	MaxDepth int
	// Tier selects the execution policy; the zero value, which NewInterp
	// leaves in place, is TierAuto.
	Tier TierPolicy

	Counters Counters
	fuel     int64

	states map[*Method]*mstate
	pool   []*frame

	prof    bool
	opProf  []int64
	qopProf []int64
}

// NewInterp creates an interpreter for the program.
func NewInterp(p *Program) *Interp { return &Interp{Program: p} }

// Run executes the program's entry method with the given arguments.
func (vm *Interp) Run(args ...Value) (Value, error) {
	if vm.Program.Entry == nil {
		return Null(), errors.New("rvm: program has no entry method")
	}
	return vm.Call(vm.Program.Entry, args...)
}

// Call executes a method with the given arguments.
func (vm *Interp) Call(m *Method, args ...Value) (Value, error) {
	vm.fuel = vm.Fuel
	if vm.fuel == 0 {
		vm.fuel = 200_000_000
	}
	maxDepth := vm.MaxDepth
	if maxDepth == 0 {
		maxDepth = 512
	}
	vm.prof = vm.Tier != TierBaseline && profilingEnabled.Load()
	if vm.prof && vm.opProf == nil {
		vm.opProf = make([]int64, numOpcodes)
		vm.qopProf = make([]int64, qopCount)
	}
	v, err := vm.invoke(m, args, 0, maxDepth)
	if vm.prof {
		vm.flushProfile()
	}
	return v, err
}

// invoke dispatches one call to the method's current tier.
func (vm *Interp) invoke(m *Method, args []Value, depth, maxDepth int) (Value, error) {
	if depth > maxDepth {
		return Null(), fmt.Errorf("rvm: call depth exceeded in %s", m.QualifiedName())
	}
	if len(args) != m.NArgs {
		return Null(), fmt.Errorf("rvm: %s expects %d args, got %d", m.QualifiedName(), m.NArgs, len(args))
	}
	st := vm.state(m)
	if st.verr != nil {
		return Null(), st.verr
	}
	if vm.Tier != TierBaseline {
		st.invocations++
	}
	if st.q != nil {
		return vm.runQuick(st, args, depth, maxDepth)
	}
	if !st.noQuick &&
		(vm.Tier == TierQuick ||
			(vm.Tier == TierAuto && (st.invocations >= TierUpInvocations || st.backedges >= TierUpBackedges))) {
		vm.quicken(st)
		if st.q != nil {
			return vm.runQuick(st, args, depth, maxDepth)
		}
	}
	return vm.runFlat(st, m, args, depth, maxDepth)
}

// runFlat executes a verified method on the tier-0 flat-frame path.
func (vm *Interp) runFlat(st *mstate, m *Method, args []Value, depth, maxDepth int) (Value, error) {
	fr := vm.acquire(m.NLocals + st.maxStack)
	copy(fr.regs, args)
	fr.depth, fr.maxDepth = depth, maxDepth
	v, err := vm.flatLoop(st, m, fr, depth, maxDepth)
	vm.release(fr)
	return v, err
}

// flatLoop is the tier-0 switch interpreter over a flat frame: locals and
// operand stack share fr.regs, verified depths make per-pop underflow
// checks unnecessary, fuel is charged per basic block, and (under
// TierAuto) backedges and virtual-call receivers are profiled. A taken
// backward branch that crosses the quickening threshold tiers up mid-loop
// via on-stack replacement: the quickened code resumes on the same frame
// at the branch-target leader.
func (vm *Interp) flatLoop(st *mstate, m *Method, fr *frame, depth, maxDepth int) (Value, error) {
	code := m.Code
	charges := st.charges
	regs := fr.regs
	base := m.NLocals
	sp := base
	profile := vm.prof
	auto := vm.Tier == TierAuto

	pc := 0
	for pc >= 0 && pc < len(code) {
		if c := charges[pc]; c != 0 {
			vm.fuel -= int64(c)
			if vm.fuel < 0 {
				return Null(), ErrFuelExhausted
			}
		}
		vm.Counters.Executed++
		in := code[pc]
		if profile {
			vm.opProf[in.Op]++
		}
		next := pc + 1
		switch in.Op {
		case OpNop:

		case OpConstInt:
			regs[sp] = Int(in.I)
			sp++
		case OpConstFloat:
			regs[sp] = Float(in.F)
			sp++
		case OpConstNull:
			regs[sp] = Null()
			sp++
		case OpLoad:
			regs[sp] = regs[in.A]
			sp++
		case OpStore:
			sp--
			regs[in.A] = regs[sp]
		case OpPop:
			sp--
		case OpDup:
			regs[sp] = regs[sp-1]
			sp++

		case OpAdd, OpSub, OpMul, OpDiv, OpRem:
			b := regs[sp-1]
			a := regs[sp-2]
			sp--
			if v, ok := arithFast(in.Op, a, b); ok {
				regs[sp-1] = v
			} else {
				v, err := Arith(in.Op, a, b)
				if err != nil {
					return Null(), err
				}
				regs[sp-1] = v
			}
		case OpNeg:
			a := regs[sp-1]
			if a.Kind() == KindFloat {
				regs[sp-1] = Float(-a.AsFloat())
			} else {
				regs[sp-1] = Int(-a.AsInt())
			}

		case OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE, OpCmpEQ, OpCmpNE:
			b := regs[sp-1]
			a := regs[sp-2]
			sp--
			regs[sp-1] = boolVal(cmpFast(in.Op, a, b))

		case OpJump:
			next = in.A
		case OpJumpIf:
			sp--
			if regs[sp].Truthy() {
				next = in.A
			}
		case OpJumpIfNot:
			sp--
			if !regs[sp].Truthy() {
				next = in.A
			}
		case OpReturn:
			sp--
			return regs[sp], nil
		case OpReturnVoid:
			return Null(), nil

		case OpNew:
			c, ok := vm.Program.Class(in.S)
			if !ok {
				return Null(), fmt.Errorf("%w: %s", ErrNoSuchClass, in.S)
			}
			vm.Counters.Object++
			regs[sp] = Ref(NewObject(c))
			sp++
		case OpGetField:
			obj := regs[sp-1].AsRef()
			if obj == nil {
				return Null(), fmt.Errorf("%w: getfield %s in %s", ErrNullPointer, in.S, m.QualifiedName())
			}
			idx, ok := obj.Class.FieldIndex(in.S)
			if !ok {
				return Null(), fmt.Errorf("%w: %s.%s", ErrNoSuchField, obj.Class.Name, in.S)
			}
			regs[sp-1] = obj.Fields[idx]
		case OpPutField:
			v := regs[sp-1]
			obj := regs[sp-2].AsRef()
			sp -= 2
			if obj == nil {
				return Null(), fmt.Errorf("%w: putfield %s", ErrNullPointer, in.S)
			}
			idx, ok := obj.Class.FieldIndex(in.S)
			if !ok {
				return Null(), fmt.Errorf("%w: %s.%s", ErrNoSuchField, obj.Class.Name, in.S)
			}
			obj.Fields[idx] = v
		case OpNewArray:
			ln := regs[sp-1].AsInt()
			if ln < 0 {
				return Null(), fmt.Errorf("rvm: negative array size %d", ln)
			}
			vm.Counters.Array++
			regs[sp-1] = Ref(NewArray(int(ln)))
		case OpALoad:
			i := regs[sp-1].AsInt()
			obj := regs[sp-2].AsRef()
			sp--
			if obj == nil {
				return Null(), fmt.Errorf("%w: aload", ErrNullPointer)
			}
			if i < 0 || i >= int64(obj.Len()) {
				return Null(), fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
			}
			regs[sp-1] = obj.At(int(i))
		case OpAStore:
			v := regs[sp-1]
			i := regs[sp-2].AsInt()
			obj := regs[sp-3].AsRef()
			sp -= 3
			if obj == nil {
				return Null(), fmt.Errorf("%w: astore", ErrNullPointer)
			}
			if i < 0 || i >= int64(obj.Len()) {
				return Null(), fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
			}
			obj.Set(int(i), v)
		case OpArrayLen:
			obj := regs[sp-1].AsRef()
			if obj == nil {
				return Null(), fmt.Errorf("%w: arraylen", ErrNullPointer)
			}
			regs[sp-1] = Int(int64(obj.Len()))

		case OpInvokeStatic:
			callee, err := vm.resolveStatic(in.S)
			if err != nil {
				return Null(), err
			}
			sp -= in.A
			ret, err := vm.invoke(callee, regs[sp:sp+in.A], depth+1, maxDepth)
			if err != nil {
				return Null(), err
			}
			regs[sp] = ret
			sp++
		case OpInvokeVirtual, OpInvokeInterface:
			sp -= in.A
			callArgs := regs[sp : sp+in.A]
			var recv *Object
			if in.A > 0 {
				recv = callArgs[0].AsRef()
			}
			if recv == nil {
				return Null(), fmt.Errorf("%w: invoke %s", ErrNullPointer, in.S)
			}
			callee, ok := recv.Class.ResolveMethod(in.S)
			if !ok {
				return Null(), fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, recv.Class.Name, in.S)
			}
			if auto {
				st.profileSite(pc, recv.Class)
			}
			vm.Counters.Method++
			ret, err := vm.invoke(callee, callArgs, depth+1, maxDepth)
			if err != nil {
				return Null(), err
			}
			regs[sp] = ret
			sp++
		case OpInvokeDynamic:
			// Bootstrap: resolve the target once and push a method handle
			// (the lambda-creation shape of JSR 292).
			callee, err := vm.resolveStatic(in.S)
			if err != nil {
				return Null(), err
			}
			vm.Counters.IDynamic++
			regs[sp] = Handle(callee)
			sp++
		case OpInvokeHandle:
			sp -= in.A + 1
			h := regs[sp]
			target := h.AsHandle()
			if target == nil {
				return Null(), fmt.Errorf("%w: invokehandle on %s", ErrNullPointer, h)
			}
			vm.Counters.Method++
			ret, err := vm.invoke(target, regs[sp+1:sp+1+in.A], depth+1, maxDepth)
			if err != nil {
				return Null(), err
			}
			regs[sp] = ret
			sp++

		case OpMonitorEnter:
			sp--
			obj := regs[sp].AsRef()
			if obj == nil {
				return Null(), fmt.Errorf("%w: monitorenter", ErrNullPointer)
			}
			obj.monitorDepth++
			vm.Counters.Synch++
			vm.Counters.Atomic++ // lock-word CAS
		case OpMonitorExit:
			sp--
			obj := regs[sp].AsRef()
			if obj == nil {
				return Null(), fmt.Errorf("%w: monitorexit", ErrNullPointer)
			}
			if obj.monitorDepth <= 0 {
				return Null(), ErrBadMonitor
			}
			obj.monitorDepth--
			vm.Counters.Atomic++
		case OpCAS:
			nv := regs[sp-1]
			exp := regs[sp-2]
			obj := regs[sp-3].AsRef()
			sp -= 3
			if obj == nil {
				return Null(), fmt.Errorf("%w: cas %s", ErrNullPointer, in.S)
			}
			idx, ok := obj.Class.FieldIndex(in.S)
			if !ok {
				return Null(), fmt.Errorf("%w: %s.%s", ErrNoSuchField, obj.Class.Name, in.S)
			}
			vm.Counters.Atomic++
			if obj.Fields[idx].Equal(exp) {
				obj.Fields[idx] = nv
				regs[sp] = Int(1)
			} else {
				regs[sp] = Int(0)
			}
			sp++
		case OpAtomicAdd:
			delta := regs[sp-1]
			obj := regs[sp-2].AsRef()
			sp -= 2
			if obj == nil {
				return Null(), fmt.Errorf("%w: atomicadd %s", ErrNullPointer, in.S)
			}
			idx, ok := obj.Class.FieldIndex(in.S)
			if !ok {
				return Null(), fmt.Errorf("%w: %s.%s", ErrNoSuchField, obj.Class.Name, in.S)
			}
			vm.Counters.Atomic++
			old := obj.Fields[idx]
			obj.Fields[idx] = Int(old.AsInt() + delta.AsInt())
			regs[sp] = old
			sp++
		case OpPark:
			vm.Counters.Park++
		case OpWait:
			sp--
			vm.Counters.Wait++
		case OpNotify:
			sp--
			vm.Counters.Notify++

		case OpInstanceOf:
			regs[sp-1] = boolVal(vm.isInstance(regs[sp-1], in.S))
		case OpCheckCast:
			o := regs[sp-1]
			if !o.IsNull() && !vm.isInstance(o, in.S) {
				return Null(), fmt.Errorf("%w: to %s", ErrBadCast, in.S)
			}
		}
		// Backedge profiling and OSR tier-up (TierAuto only): after a
		// taken backward branch, continue in quickened code on this very
		// frame — both tiers share the flat frame layout.
		if auto && next <= pc {
			switch in.Op {
			case OpJump, OpJumpIf, OpJumpIfNot:
				st.backedges++
				if st.q == nil && !st.noQuick && st.backedges >= TierUpBackedges {
					vm.quicken(st)
				}
				if st.q != nil && next >= 0 {
					if qpc := st.q.entry[next]; qpc >= 0 {
						fr.q = st.q
						fr.sp = sp
						return vm.dispatch(fr, int(qpc))
					}
				}
			}
		}
		pc = next
	}
	return Null(), nil // fell off the end: implicit void return
}

func (vm *Interp) isInstance(v Value, className string) bool {
	obj := v.AsRef()
	if obj == nil {
		return false
	}
	target, ok := vm.Program.Class(className)
	if ok {
		return obj.Class.IsSubclassOf(target)
	}
	// Unknown class names are treated as interface names.
	return obj.Class.Implements(className)
}

// resolveStatic resolves "Class.method".
func (vm *Interp) resolveStatic(qualified string) (*Method, error) {
	dot := strings.LastIndexByte(qualified, '.')
	if dot < 0 {
		return nil, fmt.Errorf("%w: %q is not Class.method", ErrNoSuchMethod, qualified)
	}
	c, ok := vm.Program.Class(qualified[:dot])
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchClass, qualified[:dot])
	}
	mth, ok := c.Methods[qualified[dot+1:]]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchMethod, qualified)
	}
	return mth, nil
}

// Arith applies the arithmetic opcode op (OpAdd … OpRem) to a and b: the
// guest's one definition of arithmetic, which every engine calls. A float
// operand promotes both to float; OpRem takes the remainder of the
// truncated operands; division or remainder by zero is ErrDivByZero.
func Arith(op Opcode, a, b Value) (Value, error) {
	if a.Kind() == KindFloat || b.Kind() == KindFloat {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case OpAdd:
			return Float(x + y), nil
		case OpSub:
			return Float(x - y), nil
		case OpMul:
			return Float(x * y), nil
		case OpDiv:
			if y == 0 {
				return Null(), ErrDivByZero
			}
			return Float(x / y), nil
		case OpRem: // integer remainder of the truncated operands
			if int64(y) == 0 {
				return Null(), ErrDivByZero
			}
			return Float(float64(int64(x) % int64(y))), nil
		}
	}
	x, y := a.AsInt(), b.AsInt()
	switch op {
	case OpAdd:
		return Int(x + y), nil
	case OpSub:
		return Int(x - y), nil
	case OpMul:
		return Int(x * y), nil
	case OpDiv:
		if y == 0 {
			return Null(), ErrDivByZero
		}
		return Int(x / y), nil
	case OpRem:
		if y == 0 {
			return Null(), ErrDivByZero
		}
		return Int(x % y), nil
	}
	return Null(), fmt.Errorf("rvm: bad arithmetic opcode %s", op)
}

// Compare applies the comparison opcode op (OpCmpLT … OpCmpNE) to a and
// b. A reference, handle or null operand compares by identity and is only
// equal or unequal; otherwise a float operand promotes both to float.
func Compare(op Opcode, a, b Value) bool {
	if a.Kind() == KindRef || b.Kind() == KindRef || a.Kind() == KindNull || b.Kind() == KindNull ||
		a.Kind() == KindHandle || b.Kind() == KindHandle {
		eq := a.Equal(b)
		switch op {
		case OpCmpEQ:
			return eq
		case OpCmpNE:
			return !eq
		default:
			return false
		}
	}
	if a.Kind() == KindFloat || b.Kind() == KindFloat {
		x, y := a.AsFloat(), b.AsFloat()
		switch op {
		case OpCmpLT:
			return x < y
		case OpCmpLE:
			return x <= y
		case OpCmpGT:
			return x > y
		case OpCmpGE:
			return x >= y
		case OpCmpEQ:
			return x == y
		case OpCmpNE:
			return x != y
		}
	}
	x, y := a.AsInt(), b.AsInt()
	switch op {
	case OpCmpLT:
		return x < y
	case OpCmpLE:
		return x <= y
	case OpCmpGT:
		return x > y
	case OpCmpGE:
		return x >= y
	case OpCmpEQ:
		return x == y
	case OpCmpNE:
		return x != y
	}
	return false
}

func boolVal(b bool) Value {
	if b {
		return Int(1)
	}
	return Int(0)
}
