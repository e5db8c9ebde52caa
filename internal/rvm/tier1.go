package rvm

import (
	"fmt"
	"math"
)

// Tier-1 execution: token-threaded dispatch over a function table indexed
// by quickened opcode. Frames are pooled and flat — locals and operand
// stack share one slice sized from the verified maximum stack depth — so steady-state
// invocation allocates nothing. Fuel is charged per basic block (the
// charge rides on each block's leader instruction); Executed and every
// other counter are bumped by the handlers to match tier-0 exactly.

// frame is a pooled activation record: regs[:nlocals] are the locals,
// regs[nlocals:] the operand stack, sp the absolute top-of-stack index.
type frame struct {
	regs            []Value
	sp              int
	q               *qcode
	depth, maxDepth int
	ret             Value
}

// acquire returns a zeroed frame of the given size from the pool.
func (vm *Interp) acquire(size int) *frame {
	var fr *frame
	if n := len(vm.pool); n > 0 {
		fr = vm.pool[n-1]
		vm.pool = vm.pool[:n-1]
	} else {
		fr = &frame{}
	}
	if cap(fr.regs) < size {
		fr.regs = make([]Value, size)
	} else {
		fr.regs = fr.regs[:size]
		for i := range fr.regs {
			fr.regs[i] = Value{}
		}
	}
	return fr
}

func (vm *Interp) release(fr *frame) {
	fr.q = nil
	vm.pool = append(vm.pool, fr)
}

// runQuick executes a quickened method from its entry.
func (vm *Interp) runQuick(st *mstate, args []Value, depth, maxDepth int) (Value, error) {
	q := st.q
	fr := vm.acquire(q.frameSize)
	copy(fr.regs, args)
	fr.q = q
	fr.sp = q.nlocals
	fr.depth, fr.maxDepth = depth, maxDepth
	v, err := vm.dispatch(fr, 0)
	vm.release(fr)
	return v, err
}

type qhandler func(*Interp, *frame, *qinstr, int) (int, error)

// dispatch is the tier-1 interpreter loop. pc -1 signals a return, with
// the result in fr.ret.
func (vm *Interp) dispatch(fr *frame, pc int) (Value, error) {
	code := fr.q.code
	profile := vm.prof
	for pc >= 0 {
		in := &code[pc]
		if in.charge != 0 {
			vm.fuel -= int64(in.charge)
			if vm.fuel < 0 {
				return Null(), ErrFuelExhausted
			}
		}
		if profile {
			vm.qopProf[in.op]++
		}
		npc, err := qhandlers[in.op](vm, fr, in, pc)
		if err != nil {
			return Null(), err
		}
		pc = npc
	}
	return fr.ret, nil
}

// cmpFast is Compare with an integer fast path.
func cmpFast(op Opcode, a, b Value) bool {
	if a.isInt() && b.isInt() {
		switch op {
		case OpCmpLT:
			return a.int() < b.int()
		case OpCmpLE:
			return a.int() <= b.int()
		case OpCmpGT:
			return a.int() > b.int()
		case OpCmpGE:
			return a.int() >= b.int()
		case OpCmpEQ:
			return a.int() == b.int()
		case OpCmpNE:
			return a.int() != b.int()
		}
	}
	return Compare(op, a, b)
}

// arithFast performs trap-free integer arithmetic inline; ok is false
// when the generic (float-promoting or trapping) path must run.
func arithFast(op Opcode, a, b Value) (Value, bool) {
	if a.isInt() && b.isInt() {
		switch op {
		case OpAdd:
			return Int(a.int() + b.int()), true
		case OpSub:
			return Int(a.int() - b.int()), true
		case OpMul:
			return Int(a.int() * b.int()), true
		case OpDiv:
			if b.int() != 0 {
				return Int(a.int() / b.int()), true
			}
		case OpRem:
			if b.int() != 0 {
				return Int(a.int() % b.int()), true
			}
		}
	}
	return Value{}, false
}

var qhandlers [qopCount]qhandler

// Populated in init to break the static initialization cycle through
// invoke → dispatch → qhandlers.
func init() {
	qhandlers = [qopCount]qhandler{
		qNop:           qhNop,
		qConstInt:      qhConstInt,
		qConstFloat:    qhConstFloat,
		qConstNull:     qhConstNull,
		qLoad:          qhLoad,
		qStore:         qhStore,
		qPop:           qhPop,
		qDup:           qhDup,
		qArith:         qhArith,
		qNeg:           qhNeg,
		qCmp:           qhCmp,
		qJump:          qhJump,
		qJumpIf:        qhJumpIf,
		qJumpIfNot:     qhJumpIfNot,
		qReturn:        qhReturn,
		qReturnVoid:    qhReturnVoid,
		qNew:           qhNew,
		qGetField:      qhGetField,
		qPutField:      qhPutField,
		qNewArray:      qhNewArray,
		qALoad:         qhALoad,
		qALoadNB:       qhALoadNB,
		qAStore:        qhAStore,
		qAStoreNB:      qhAStoreNB,
		qArrayLen:      qhArrayLen,
		qInvokeStatic:  qhInvokeStatic,
		qInvokeVirtual: qhInvokeVirtual,
		qInvokeDynamic: qhInvokeDynamic,
		qInvokeHandle:  qhInvokeHandle,
		qMonitorEnter:  qhMonitorEnter,
		qMonitorExit:   qhMonitorExit,
		qCAS:           qhCAS,
		qAtomicAdd:     qhAtomicAdd,
		qPark:          qhPark,
		qWait:          qhWait,
		qNotify:        qhNotify,
		qInstanceOf:    qhInstanceOf,
		qCheckCast:     qhCheckCast,
		qLenCmpBr:      qhLenCmpBr,
		qLLCmpBr:       qhLLCmpBr,
		qLCCmpBr:       qhLCCmpBr,
		qCmpBr:         qhCmpBr,
		qLCArithStore:  qhLCArithStore,
		qLLArithStore:  qhLLArithStore,
		qArithStore:    qhArithStore,
		qCArith:        qhCArith,
		qLLALoad:       qhLLALoad,
		qLLALoadNB:     qhLLALoadNB,
		qLLLAStore:     qhLLLAStore,
		qLLLAStoreNB:   qhLLLAStoreNB,
		qEnd:           qhEnd,
	}
}

func qhNop(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	return pc + 1, nil
}

func qhConstInt(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.regs[fr.sp] = Int(in.i)
	fr.sp++
	return pc + 1, nil
}

func qhConstFloat(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.regs[fr.sp] = Float(math.Float64frombits(uint64(in.i)))
	fr.sp++
	return pc + 1, nil
}

func qhConstNull(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.regs[fr.sp] = Null()
	fr.sp++
	return pc + 1, nil
}

func qhLoad(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.regs[fr.sp] = fr.regs[in.a]
	fr.sp++
	return pc + 1, nil
}

func qhStore(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	fr.regs[in.a] = fr.regs[fr.sp]
	return pc + 1, nil
}

func qhPop(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	return pc + 1, nil
}

func qhDup(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.regs[fr.sp] = fr.regs[fr.sp-1]
	fr.sp++
	return pc + 1, nil
}

func qhArith(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	b := fr.regs[fr.sp-1]
	a := fr.regs[fr.sp-2]
	fr.sp--
	if v, ok := arithFast(in.xop, a, b); ok {
		fr.regs[fr.sp-1] = v
		return pc + 1, nil
	}
	v, err := Arith(in.xop, a, b)
	if err != nil {
		return 0, err
	}
	fr.regs[fr.sp-1] = v
	return pc + 1, nil
}

func qhNeg(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	a := fr.regs[fr.sp-1]
	if a.Kind() == KindFloat {
		fr.regs[fr.sp-1] = Float(-a.AsFloat())
	} else {
		fr.regs[fr.sp-1] = Int(-a.AsInt())
	}
	return pc + 1, nil
}

func qhCmp(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	b := fr.regs[fr.sp-1]
	a := fr.regs[fr.sp-2]
	fr.sp--
	fr.regs[fr.sp-1] = boolVal(cmpFast(in.xop, a, b))
	return pc + 1, nil
}

func qhJump(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	return int(in.c), nil
}

func qhJumpIf(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	if fr.regs[fr.sp].Truthy() {
		return int(in.c), nil
	}
	return pc + 1, nil
}

func qhJumpIfNot(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	if !fr.regs[fr.sp].Truthy() {
		return int(in.c), nil
	}
	return pc + 1, nil
}

func qhReturn(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	fr.ret = fr.regs[fr.sp]
	return -1, nil
}

func qhReturnVoid(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.ret = Null()
	return -1, nil
}

func qhEnd(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	// Implicit void return (fell off the end / out-of-range jump): the
	// seed executes no instruction for this, so no Executed bump.
	fr.ret = Null()
	return -1, nil
}

func qhNew(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	x := in.sym
	c := x.cls
	if c == nil {
		cc, ok := vm.Program.Class(x.s)
		if !ok {
			return 0, fmt.Errorf("%w: %s", ErrNoSuchClass, x.s)
		}
		x.cls = cc
		c = cc
	}
	vm.Counters.Object++
	fr.regs[fr.sp] = Ref(NewObject(c))
	fr.sp++
	return pc + 1, nil
}

func qhGetField(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	obj := fr.regs[fr.sp-1].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: getfield %s in %s", ErrNullPointer, in.sym.s, fr.q.m.QualifiedName())
	}
	ic := in.sym.ic
	idx := ic.fidx
	if ic.fcls != obj.Class {
		j, ok := obj.Class.FieldIndex(in.sym.s)
		if !ok {
			return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchField, obj.Class.Name, in.sym.s)
		}
		ic.fcls, ic.fidx = obj.Class, j
		ic.misses++
		idx = j
	} else {
		ic.hits++
	}
	fr.regs[fr.sp-1] = obj.Fields[idx]
	return pc + 1, nil
}

func qhPutField(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	v := fr.regs[fr.sp-1]
	obj := fr.regs[fr.sp-2].AsRef()
	fr.sp -= 2
	if obj == nil {
		return 0, fmt.Errorf("%w: putfield %s", ErrNullPointer, in.sym.s)
	}
	ic := in.sym.ic
	idx := ic.fidx
	if ic.fcls != obj.Class {
		j, ok := obj.Class.FieldIndex(in.sym.s)
		if !ok {
			return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchField, obj.Class.Name, in.sym.s)
		}
		ic.fcls, ic.fidx = obj.Class, j
		ic.misses++
		idx = j
	} else {
		ic.hits++
	}
	obj.Fields[idx] = v
	return pc + 1, nil
}

func qhNewArray(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	ln := fr.regs[fr.sp-1].AsInt()
	if ln < 0 {
		return 0, fmt.Errorf("rvm: negative array size %d", ln)
	}
	vm.Counters.Array++
	fr.regs[fr.sp-1] = Ref(NewArray(int(ln)))
	return pc + 1, nil
}

func qhALoad(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	idx := fr.regs[fr.sp-1]
	obj := fr.regs[fr.sp-2].AsRef()
	fr.sp--
	if obj == nil {
		return 0, fmt.Errorf("%w: aload", ErrNullPointer)
	}
	i := idx.AsInt()
	if i < 0 || i >= int64(obj.Len()) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
	}
	fr.regs[fr.sp-1] = obj.At(int(i))
	return pc + 1, nil
}

// qhALoadNB is the guarded-region form: the loop header already proved
// the array non-null and the index within [0, len). The residual checks
// are defensive single compares that never fire when the region proof
// holds.
func qhALoadNB(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	i := fr.regs[fr.sp-1].AsInt()
	obj := fr.regs[fr.sp-2].AsRef()
	fr.sp--
	if obj == nil {
		return 0, fmt.Errorf("%w: aload", ErrNullPointer)
	}
	if uint64(i) >= uint64(obj.Len()) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
	}
	fr.regs[fr.sp-1] = obj.At(int(i))
	return pc + 1, nil
}

func qhAStore(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	v := fr.regs[fr.sp-1]
	idx := fr.regs[fr.sp-2]
	obj := fr.regs[fr.sp-3].AsRef()
	fr.sp -= 3
	if obj == nil {
		return 0, fmt.Errorf("%w: astore", ErrNullPointer)
	}
	i := idx.AsInt()
	if i < 0 || i >= int64(obj.Len()) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
	}
	obj.Set(int(i), v)
	return pc + 1, nil
}

func qhAStoreNB(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	v := fr.regs[fr.sp-1]
	i := fr.regs[fr.sp-2].AsInt()
	obj := fr.regs[fr.sp-3].AsRef()
	fr.sp -= 3
	if obj == nil {
		return 0, fmt.Errorf("%w: astore", ErrNullPointer)
	}
	if uint64(i) >= uint64(obj.Len()) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
	}
	obj.Set(int(i), v)
	return pc + 1, nil
}

func qhArrayLen(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	obj := fr.regs[fr.sp-1].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: arraylen", ErrNullPointer)
	}
	fr.regs[fr.sp-1] = Int(int64(obj.Len()))
	return pc + 1, nil
}

func qhInvokeStatic(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	x := in.sym
	t := x.tgt
	if t == nil {
		// Lazy resolution: a bad call site traps on first execution,
		// exactly like tier-0; a good one resolves once.
		tt, err := vm.resolveStatic(x.s)
		if err != nil {
			return 0, err
		}
		x.tgt = tt
		x.tstate = vm.state(tt)
		t = tt
	}
	n := int(in.a)
	args := fr.regs[fr.sp-n : fr.sp]
	fr.sp -= n
	ret, err := vm.callCached(x.tstate, t, args, fr)
	if err != nil {
		return 0, err
	}
	fr.regs[fr.sp] = ret
	fr.sp++
	return pc + 1, nil
}

func qhInvokeVirtual(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	n := int(in.a)
	args := fr.regs[fr.sp-n : fr.sp]
	fr.sp -= n
	var recv *Object
	if n > 0 {
		recv = args[0].AsRef()
	}
	if recv == nil {
		return 0, fmt.Errorf("%w: invoke %s", ErrNullPointer, in.sym.s)
	}
	ic := in.sym.ic
	var target *Method
	var tst *mstate
	for k := 0; k < ic.n; k++ {
		if ic.classes[k] == recv.Class {
			target = ic.targets[k]
			ic.hits++
			if ic.states[k] == nil {
				ic.states[k] = vm.state(target)
			}
			tst = ic.states[k]
			break
		}
	}
	if target == nil {
		ic.misses++
		t, ok := recv.Class.ResolveMethod(in.sym.s)
		if !ok {
			return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, recv.Class.Name, in.sym.s)
		}
		if ic.n < icWidth {
			ic.classes[ic.n] = recv.Class
			ic.targets[ic.n] = t
			ic.states[ic.n] = vm.state(t)
			tst = ic.states[ic.n]
			ic.n++
		}
		target = t
	}
	vm.Counters.Method++
	ret, err := vm.callCached(tst, target, args, fr)
	if err != nil {
		return 0, err
	}
	fr.regs[fr.sp] = ret
	fr.sp++
	return pc + 1, nil
}

// callCached dispatches a call whose target's tiering state an inline
// cache may already hold: a quickened callee is entered directly,
// skipping the per-call state lookup; everything else (unquickened,
// arity mismatch, depth limit) takes the generic invoke path so traps
// and tier-up behave exactly as tier-0 would.
func (vm *Interp) callCached(tst *mstate, target *Method, args []Value, fr *frame) (Value, error) {
	if tst != nil && tst.q != nil && len(args) == tst.m.NArgs && fr.depth < fr.maxDepth {
		if vm.Tier != TierBaseline {
			tst.invocations++
		}
		return vm.runQuick(tst, args, fr.depth+1, fr.maxDepth)
	}
	return vm.invoke(target, args, fr.depth+1, fr.maxDepth)
}

func qhInvokeDynamic(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	x := in.sym
	t := x.tgt
	if t == nil {
		tt, err := vm.resolveStatic(x.s)
		if err != nil {
			return 0, err
		}
		x.tgt = tt
		t = tt
	}
	vm.Counters.IDynamic++
	fr.regs[fr.sp] = Handle(t)
	fr.sp++
	return pc + 1, nil
}

func qhInvokeHandle(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	n := int(in.a)
	args := fr.regs[fr.sp-n : fr.sp]
	h := fr.regs[fr.sp-n-1]
	fr.sp -= n + 1
	target := h.AsHandle()
	if target == nil {
		return 0, fmt.Errorf("%w: invokehandle on %s", ErrNullPointer, h)
	}
	ic := in.sym.ic
	if ic.targets[0] == target {
		ic.hits++
	} else {
		ic.misses++
		ic.targets[0] = target
		ic.states[0] = vm.state(target)
		if ic.n == 0 {
			ic.n = 1
		}
	}
	vm.Counters.Method++
	ret, err := vm.callCached(ic.states[0], target, args, fr)
	if err != nil {
		return 0, err
	}
	fr.regs[fr.sp] = ret
	fr.sp++
	return pc + 1, nil
}

func qhMonitorEnter(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	obj := fr.regs[fr.sp].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: monitorenter", ErrNullPointer)
	}
	obj.monitorDepth++
	vm.Counters.Synch++
	vm.Counters.Atomic++ // lock-word CAS
	return pc + 1, nil
}

func qhMonitorExit(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	obj := fr.regs[fr.sp].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: monitorexit", ErrNullPointer)
	}
	if obj.monitorDepth <= 0 {
		return 0, ErrBadMonitor
	}
	obj.monitorDepth--
	vm.Counters.Atomic++
	return pc + 1, nil
}

func qhCAS(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	nv := fr.regs[fr.sp-1]
	exp := fr.regs[fr.sp-2]
	obj := fr.regs[fr.sp-3].AsRef()
	fr.sp -= 3
	if obj == nil {
		return 0, fmt.Errorf("%w: cas %s", ErrNullPointer, in.sym.s)
	}
	idx, ok := obj.Class.FieldIndex(in.sym.s)
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchField, obj.Class.Name, in.sym.s)
	}
	vm.Counters.Atomic++
	if obj.Fields[idx].Equal(exp) {
		obj.Fields[idx] = nv
		fr.regs[fr.sp] = Int(1)
	} else {
		fr.regs[fr.sp] = Int(0)
	}
	fr.sp++
	return pc + 1, nil
}

func qhAtomicAdd(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	delta := fr.regs[fr.sp-1]
	obj := fr.regs[fr.sp-2].AsRef()
	fr.sp -= 2
	if obj == nil {
		return 0, fmt.Errorf("%w: atomicadd %s", ErrNullPointer, in.sym.s)
	}
	idx, ok := obj.Class.FieldIndex(in.sym.s)
	if !ok {
		return 0, fmt.Errorf("%w: %s.%s", ErrNoSuchField, obj.Class.Name, in.sym.s)
	}
	vm.Counters.Atomic++
	old := obj.Fields[idx]
	obj.Fields[idx] = Int(old.AsInt() + delta.AsInt())
	fr.regs[fr.sp] = old
	fr.sp++
	return pc + 1, nil
}

func qhPark(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	vm.Counters.Park++
	return pc + 1, nil
}

func qhWait(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	vm.Counters.Wait++
	return pc + 1, nil
}

func qhNotify(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.sp--
	vm.Counters.Notify++
	return pc + 1, nil
}

func qhInstanceOf(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	fr.regs[fr.sp-1] = boolVal(vm.isInstance(fr.regs[fr.sp-1], in.sym.s))
	return pc + 1, nil
}

func qhCheckCast(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++
	o := fr.regs[fr.sp-1]
	if !o.IsNull() && !vm.isInstance(o, in.sym.s) {
		return 0, fmt.Errorf("%w: to %s", ErrBadCast, in.sym.s)
	}
	return pc + 1, nil
}

// --- Superinstructions ---------------------------------------------------
//
// Executed bumps are staged so a trap observes the count tier-0 would
// have produced at the same point (count-before-execute semantics).

// qhLenCmpBr is the fused canonical loop header — and, inside a proven
// region, the hoisted null+bounds check for the body's NB accesses.
func qhLenCmpBr(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 3 // Load idx; Load arr; ArrayLen
	obj := fr.regs[in.b].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: arraylen", ErrNullPointer)
	}
	vm.Counters.Executed += 2 // CmpLT; JumpIfNot
	iv := fr.regs[in.a]
	var lt bool
	if iv.isInt() {
		lt = iv.int() < int64(obj.Len())
	} else {
		lt = Compare(OpCmpLT, iv, Int(int64(obj.Len())))
	}
	if !lt {
		return int(in.c), nil
	}
	return pc + 1, nil
}

func qhLLCmpBr(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 4
	t := cmpFast(in.xop, fr.regs[in.a], fr.regs[in.b])
	if t != in.neg { // JumpIf taken on true, JumpIfNot on false
		return int(in.c), nil
	}
	return pc + 1, nil
}

func qhLCCmpBr(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 4
	t := cmpFast(in.xop, fr.regs[in.a], Int(in.i))
	if t != in.neg {
		return int(in.c), nil
	}
	return pc + 1, nil
}

func qhCmpBr(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 2
	b := fr.regs[fr.sp-1]
	a := fr.regs[fr.sp-2]
	fr.sp -= 2
	t := cmpFast(in.xop, a, b)
	if t != in.neg {
		return int(in.c), nil
	}
	return pc + 1, nil
}

func qhLCArithStore(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 4
	x := fr.regs[in.a]
	if x.isInt() {
		// Fusion guarantees the constant divisor is non-zero.
		switch in.xop {
		case OpAdd:
			fr.regs[in.b] = Int(x.int() + in.i)
		case OpSub:
			fr.regs[in.b] = Int(x.int() - in.i)
		case OpMul:
			fr.regs[in.b] = Int(x.int() * in.i)
		case OpDiv:
			fr.regs[in.b] = Int(x.int() / in.i)
		case OpRem:
			fr.regs[in.b] = Int(x.int() % in.i)
		}
		return pc + 1, nil
	}
	v, err := Arith(in.xop, x, Int(in.i))
	if err != nil {
		return 0, err
	}
	fr.regs[in.b] = v
	return pc + 1, nil
}

func qhLLArithStore(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 4
	x, y := fr.regs[in.a], fr.regs[in.b]
	if v, ok := arithFast(in.xop, x, y); ok {
		fr.regs[in.c] = v
		return pc + 1, nil
	}
	v, err := Arith(in.xop, x, y) // Add/Sub/Mul only: cannot trap
	if err != nil {
		return 0, err
	}
	fr.regs[in.c] = v
	return pc + 1, nil
}

func qhArithStore(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed++ // the arith
	b := fr.regs[fr.sp-1]
	a := fr.regs[fr.sp-2]
	fr.sp -= 2
	v, ok := arithFast(in.xop, a, b)
	if !ok {
		var err error
		v, err = Arith(in.xop, a, b)
		if err != nil {
			return 0, err // trap before the store is counted, like tier-0
		}
	}
	vm.Counters.Executed++ // the store
	fr.regs[in.a] = v
	return pc + 1, nil
}

func qhCArith(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 2
	a := fr.regs[fr.sp-1]
	k := Int(in.i)
	if v, ok := arithFast(in.xop, a, k); ok {
		fr.regs[fr.sp-1] = v
		return pc + 1, nil
	}
	v, err := Arith(in.xop, a, k) // non-zero constant: cannot trap
	if err != nil {
		return 0, err
	}
	fr.regs[fr.sp-1] = v
	return pc + 1, nil
}

func qhLLALoad(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 3
	obj := fr.regs[in.a].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: aload", ErrNullPointer)
	}
	i := fr.regs[in.b].AsInt()
	if i < 0 || i >= int64(obj.Len()) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
	}
	fr.regs[fr.sp] = obj.At(int(i))
	fr.sp++
	return pc + 1, nil
}

func qhLLALoadNB(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 3
	obj := fr.regs[in.a].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: aload", ErrNullPointer)
	}
	i := fr.regs[in.b].AsInt()
	if uint64(i) >= uint64(obj.Len()) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
	}
	fr.regs[fr.sp] = obj.At(int(i))
	fr.sp++
	return pc + 1, nil
}

func qhLLLAStore(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 4
	obj := fr.regs[in.a].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: astore", ErrNullPointer)
	}
	i := fr.regs[in.b].AsInt()
	if i < 0 || i >= int64(obj.Len()) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
	}
	obj.Set(int(i), fr.regs[in.c])
	return pc + 1, nil
}

func qhLLLAStoreNB(vm *Interp, fr *frame, in *qinstr, pc int) (int, error) {
	vm.Counters.Executed += 4
	obj := fr.regs[in.a].AsRef()
	if obj == nil {
		return 0, fmt.Errorf("%w: astore", ErrNullPointer)
	}
	i := fr.regs[in.b].AsInt()
	if uint64(i) >= uint64(obj.Len()) {
		return 0, fmt.Errorf("%w: %d of %d", ErrBounds, i, obj.Len())
	}
	obj.Set(int(i), fr.regs[in.c])
	return pc + 1, nil
}
