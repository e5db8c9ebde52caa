package ir

import (
	"errors"
	"fmt"
	"strings"

	"renaissance/internal/rvm"
)

// Cost model: deterministic cycle costs per instruction kind, standing in
// for the paper's reference-cycle measurements. The relative magnitudes
// follow conventional micro-architectural estimates: atomic and monitor
// operations are tens of cycles (they imply fenced read-modify-writes),
// calls carry frame overhead plus indirect-dispatch penalties, guards are
// cheap compares, and the vector unit amortizes one operation over four
// lanes.
const (
	CostArith      = 1
	CostMul        = 3
	CostDiv        = 20
	CostCmp        = 1
	CostMove       = 1
	CostConst      = 1
	CostLoad       = 4 // L1-hit memory access
	CostStore      = 4
	CostNew        = 18
	CostNewArray   = 18
	CostGuard      = 2
	CostCallStatic = 14
	CostCallVirt   = 24 // vtable dispatch
	CostCallHandle = 32 // polymorphic method-handle invocation
	CostMakeHandle = 15
	CostMonitorOp  = 20
	CostCAS        = 16
	CostScalarCAS  = 2 // scalar-replaced CAS: compare + move
	CostAtomicAdd  = 16
	CostPark       = 60
	CostWaitNotify = 30
	CostInstanceOf = 4
	CostCheckCast  = 4
	CostBranch     = 1
	CostVecArith   = 6 // 4 lanes: 2 vector loads + op + store amortized
	CostArrayLen   = 2
	CostReturn     = 2
)

// ErrDeopt is returned when a guard fails (the deoptimization path; the
// experiments are constructed never to deoptimize).
var ErrDeopt = errors.New("ir: guard failed (deoptimization)")

// Stats accumulates execution statistics of one IR run.
type Stats struct {
	Cycles   int64
	Executed int64
	// GuardsExecuted counts guard executions by kind, reproducing the
	// §5.5 guard table ("NullCheckException", "BoundsCheckException",
	// plus their hoisted Speculative variants).
	GuardsExecuted map[string]int64
	// FuncCalls counts invocations per function (hot-method detection).
	FuncCalls map[string]int64
	// FuncCycles attributes cycles to the function that spent them
	// (the §5.4 per-method profile).
	FuncCycles map[string]int64
	// Ops counts executed instructions per opcode.
	Ops [numOps]int64
}

func newStats() *Stats {
	return &Stats{
		GuardsExecuted: make(map[string]int64),
		FuncCalls:      make(map[string]int64),
		FuncCycles:     make(map[string]int64),
	}
}

// MemTracer observes memory accesses (the cache simulator hook).
type MemTracer interface {
	// Access is called with a stable object identity, an element/field
	// index, and whether the access writes.
	Access(obj *rvm.Object, index int, write bool)
}

// Exec executes IR programs under the cost model.
type Exec struct {
	Prog *Program
	// Fuel bounds executed instructions (0 = 500M).
	Fuel int64
	// Tracer, when set, receives memory accesses (used for cache-miss
	// profiling; nil otherwise, to keep the interpreter fast).
	Tracer MemTracer

	Stats *Stats
	fuel  int64
}

// NewExec creates an executor.
func NewExec(p *Program) *Exec {
	return &Exec{Prog: p, Stats: newStats()}
}

// Run executes the program entry function.
func (e *Exec) Run(args ...rvm.Value) (rvm.Value, error) {
	f, ok := e.Prog.Func(e.Prog.Entry)
	if !ok {
		return rvm.Null(), fmt.Errorf("ir: no entry function %q", e.Prog.Entry)
	}
	e.fuel = e.Fuel
	if e.fuel == 0 {
		e.fuel = 500_000_000
	}
	return e.call(f, args, 0)
}

const maxDepth = 512

func (e *Exec) call(f *Func, args []rvm.Value, depth int) (rvm.Value, error) {
	if depth > maxDepth {
		return rvm.Null(), fmt.Errorf("ir: call depth exceeded in %s", f.Name)
	}
	if len(args) != f.NArgs {
		return rvm.Null(), fmt.Errorf("ir: %s expects %d args, got %d", f.Name, f.NArgs, len(args))
	}
	e.Stats.FuncCalls[f.Name]++
	regs := make([]rvm.Value, f.NRegs)
	copy(regs, args)

	charge := func(c int64) {
		e.Stats.Cycles += c
		e.Stats.FuncCycles[f.Name] += c
	}

	b := f.Entry
	for {
		for _, in := range b.Code {
			e.fuel--
			if e.fuel < 0 {
				return rvm.Null(), rvm.ErrFuelExhausted
			}
			e.Stats.Executed++
			e.Stats.Ops[in.Op]++
			switch in.Op {
			case OpConst:
				regs[in.Dst] = in.Val
				charge(CostConst)
			case OpMove:
				regs[in.Dst] = regs[in.A]
				charge(CostMove)

			case OpAdd, OpSub, OpMul, OpDiv, OpRem:
				v, err := rvm.Arith(Bytecode[in.Op], regs[in.A], regs[in.B])
				if err != nil {
					return rvm.Null(), err
				}
				regs[in.Dst] = v
				switch in.Op {
				case OpMul:
					charge(CostMul)
				case OpDiv, OpRem:
					charge(CostDiv)
				default:
					charge(CostArith)
				}
			case OpNeg:
				a := regs[in.A]
				if a.Kind() == rvm.KindFloat {
					regs[in.Dst] = rvm.Float(-a.AsFloat())
				} else {
					regs[in.Dst] = rvm.Int(-a.AsInt())
				}
				charge(CostArith)
			case OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE, OpCmpEQ, OpCmpNE:
				regs[in.Dst] = boolVal(rvm.Compare(Bytecode[in.Op], regs[in.A], regs[in.B]))
				charge(CostCmp)

			case OpNew:
				c, ok := e.Prog.Classes[in.Sym]
				if !ok {
					return rvm.Null(), fmt.Errorf("%w: %s", rvm.ErrNoSuchClass, in.Sym)
				}
				regs[in.Dst] = rvm.Ref(rvm.NewObject(c))
				charge(CostNew)
			case OpGetField:
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: getfield %s in %s", rvm.ErrNullPointer, in.Sym, f.Name)
				}
				idx, ok := obj.Class.FieldIndex(in.Sym)
				if !ok {
					return rvm.Null(), fmt.Errorf("%w: %s.%s", rvm.ErrNoSuchField, obj.Class.Name, in.Sym)
				}
				if e.Tracer != nil {
					e.Tracer.Access(obj, idx, false)
				}
				regs[in.Dst] = obj.Fields[idx]
				charge(CostLoad)
			case OpPutField:
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: putfield %s", rvm.ErrNullPointer, in.Sym)
				}
				idx, ok := obj.Class.FieldIndex(in.Sym)
				if !ok {
					return rvm.Null(), fmt.Errorf("%w: %s.%s", rvm.ErrNoSuchField, obj.Class.Name, in.Sym)
				}
				if e.Tracer != nil {
					e.Tracer.Access(obj, idx, true)
				}
				obj.Fields[idx] = regs[in.B]
				charge(CostStore)
			case OpNewArray:
				n := regs[in.A].AsInt()
				if n < 0 {
					return rvm.Null(), fmt.Errorf("ir: negative array size %d", n)
				}
				regs[in.Dst] = rvm.Ref(rvm.NewArray(int(n)))
				charge(CostNewArray + n/8)
			case OpALoad:
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: aload", rvm.ErrNullPointer)
				}
				i := regs[in.B].AsInt()
				if i < 0 || i >= int64(obj.Len()) {
					return rvm.Null(), fmt.Errorf("%w: %d of %d", rvm.ErrBounds, i, obj.Len())
				}
				if e.Tracer != nil {
					e.Tracer.Access(obj, int(i), false)
				}
				regs[in.Dst] = obj.At(int(i))
				charge(CostLoad)
			case OpAStore:
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: astore", rvm.ErrNullPointer)
				}
				i := regs[in.B].AsInt()
				if i < 0 || i >= int64(obj.Len()) {
					return rvm.Null(), fmt.Errorf("%w: %d of %d", rvm.ErrBounds, i, obj.Len())
				}
				if e.Tracer != nil {
					e.Tracer.Access(obj, int(i), true)
				}
				obj.Set(int(i), regs[in.C])
				charge(CostStore)
			case OpArrayLen:
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: arraylen", rvm.ErrNullPointer)
				}
				regs[in.Dst] = rvm.Int(int64(obj.Len()))
				charge(CostArrayLen)

			case OpCallStatic:
				callee, ok := e.Prog.Func(in.Sym)
				if !ok {
					// Report what the interpreters' resolution reports.
					if _, err := e.resolveHandle(in.Sym); err != nil {
						return rvm.Null(), err
					}
					return rvm.Null(), fmt.Errorf("%w: no IR for %s", rvm.ErrNoSuchMethod, in.Sym)
				}
				charge(CostCallStatic)
				ret, err := e.call(callee, e.gatherArgs(regs, in.Args), depth+1)
				if err != nil {
					return rvm.Null(), err
				}
				regs[in.Dst] = ret
			case OpCallVirt:
				var recv *rvm.Object
				if len(in.Args) > 0 {
					recv = regs[in.Args[0]].AsRef()
				}
				if recv == nil {
					return rvm.Null(), fmt.Errorf("%w: callvirt %s", rvm.ErrNullPointer, in.Sym)
				}
				m, ok := recv.Class.ResolveMethod(in.Sym)
				if !ok {
					return rvm.Null(), fmt.Errorf("%w: %s.%s", rvm.ErrNoSuchMethod, recv.Class.Name, in.Sym)
				}
				callee, ok := e.Prog.Func(m.QualifiedName())
				if !ok {
					return rvm.Null(), fmt.Errorf("%w: no IR for %s", rvm.ErrNoSuchMethod, m.QualifiedName())
				}
				charge(CostCallVirt)
				ret, err := e.call(callee, e.gatherArgs(regs, in.Args), depth+1)
				if err != nil {
					return rvm.Null(), err
				}
				regs[in.Dst] = ret
			case OpMakeHandle:
				callee, err := e.resolveHandle(in.Sym)
				if err != nil {
					return rvm.Null(), err
				}
				regs[in.Dst] = rvm.Handle(callee)
				charge(CostMakeHandle)
			case OpCallHandle:
				h := regs[in.A].AsHandle()
				if h == nil {
					return rvm.Null(), fmt.Errorf("%w: callhandle", rvm.ErrNullPointer)
				}
				callee, ok := e.Prog.Func(h.QualifiedName())
				if !ok {
					return rvm.Null(), fmt.Errorf("%w: no IR for %s", rvm.ErrNoSuchMethod, h.QualifiedName())
				}
				charge(CostCallHandle)
				ret, err := e.call(callee, e.gatherArgs(regs, in.Args), depth+1)
				if err != nil {
					return rvm.Null(), err
				}
				regs[in.Dst] = ret

			case OpMonitorEnter, OpMonitorExit:
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: monitor", rvm.ErrNullPointer)
				}
				charge(CostMonitorOp)
			case OpCAS:
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: cas %s", rvm.ErrNullPointer, in.Sym)
				}
				idx, ok := obj.Class.FieldIndex(in.Sym)
				if !ok {
					return rvm.Null(), fmt.Errorf("%w: %s.%s", rvm.ErrNoSuchField, obj.Class.Name, in.Sym)
				}
				if e.Tracer != nil {
					e.Tracer.Access(obj, idx, true)
				}
				charge(CostCAS)
				if obj.Fields[idx].Equal(regs[in.B]) {
					obj.Fields[idx] = regs[in.C]
					regs[in.Dst] = rvm.Int(1)
				} else {
					regs[in.Dst] = rvm.Int(0)
				}
			case OpScalarCAS:
				// Scalar-replaced CAS after escape analysis: register A
				// plays the field, B the expected value, C the new value.
				charge(CostScalarCAS)
				if regs[in.A].Equal(regs[in.B]) {
					regs[in.A] = regs[in.C]
					regs[in.Dst] = rvm.Int(1)
				} else {
					regs[in.Dst] = rvm.Int(0)
				}
			case OpAtomicAdd:
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: atomicadd %s", rvm.ErrNullPointer, in.Sym)
				}
				idx, ok := obj.Class.FieldIndex(in.Sym)
				if !ok {
					return rvm.Null(), fmt.Errorf("%w: %s.%s", rvm.ErrNoSuchField, obj.Class.Name, in.Sym)
				}
				charge(CostAtomicAdd)
				old := obj.Fields[idx]
				obj.Fields[idx] = rvm.Int(old.AsInt() + regs[in.B].AsInt())
				regs[in.Dst] = old
			case OpPark:
				charge(CostPark)
			case OpWait, OpNotify:
				charge(CostWaitNotify)

			case OpInstanceOf:
				regs[in.Dst] = boolVal(e.isInstance(regs[in.A], in.Sym))
				charge(CostInstanceOf)
			case OpCheckCast:
				v := regs[in.A]
				if !v.IsNull() && !e.isInstance(v, in.Sym) {
					return rvm.Null(), fmt.Errorf("%w: to %s", rvm.ErrBadCast, in.Sym)
				}
				regs[in.Dst] = v
				charge(CostCheckCast)

			case OpGuardNull:
				e.Stats.GuardsExecuted[guardName("NullCheck", in.Sym)]++
				charge(CostGuard)
				if regs[in.A].AsRef() == nil && regs[in.A].Kind() != rvm.KindHandle {
					return rvm.Null(), fmt.Errorf("%w: null guard in %s", ErrDeopt, f.Name)
				}
			case OpGuardBounds:
				e.Stats.GuardsExecuted[guardName("BoundsCheck", in.Sym)]++
				charge(CostGuard)
				obj := regs[in.A].AsRef()
				if obj == nil {
					return rvm.Null(), fmt.Errorf("%w: bounds guard on null in %s", ErrDeopt, f.Name)
				}
				i := regs[in.B].AsInt()
				if i < 0 || i >= int64(obj.Len()) {
					return rvm.Null(), fmt.Errorf("%w: bounds guard %d of %d in %s", ErrDeopt, i, obj.Len(), f.Name)
				}

			case OpVecArith:
				dst := regs[in.Dst].AsRef()
				a1 := regs[in.A].AsRef()
				if dst == nil || a1 == nil {
					return rvm.Null(), fmt.Errorf("%w: vecarith", rvm.ErrNullPointer)
				}
				base := regs[in.B].AsInt()
				if base < 0 || base+VectorWidth > int64(dst.Len()) || base+VectorWidth > int64(a1.Len()) {
					return rvm.Null(), fmt.Errorf("%w: vecarith lanes %d..%d", rvm.ErrBounds, base, base+VectorWidth)
				}
				var a2 *rvm.Object
				if in.ConstOperand == nil {
					a2 = regs[in.C].AsRef()
					if a2 == nil || base+VectorWidth > int64(a2.Len()) {
						return rvm.Null(), fmt.Errorf("%w: vecarith operand", rvm.ErrBounds)
					}
				}
				for i := int(base); i < int(base+VectorWidth); i++ {
					var o rvm.Value
					if in.ConstOperand != nil {
						o = *in.ConstOperand
					} else {
						o = a2.At(i)
					}
					v, err := rvm.Arith(Bytecode[in.ArithOp], a1.At(i), o)
					if err != nil {
						return rvm.Null(), err
					}
					dst.Set(i, v)
				}
				charge(CostVecArith)

			default:
				return rvm.Null(), fmt.Errorf("ir: unknown op %s in %s", in.Op, f.Name)
			}
		}

		// Terminator.
		e.fuel--
		if e.fuel < 0 {
			return rvm.Null(), rvm.ErrFuelExhausted
		}
		switch b.Term.Kind {
		case TermJump:
			charge(CostBranch)
			b = b.Term.To
		case TermBranch:
			charge(CostBranch)
			if regs[b.Term.Cond].Truthy() {
				b = b.Term.To
			} else {
				b = b.Term.Else
			}
		case TermReturn:
			charge(CostReturn)
			return regs[b.Term.Ret], nil
		case TermReturnVoid:
			charge(CostReturn)
			return rvm.Null(), nil
		}
	}
}

func (e *Exec) gatherArgs(regs []rvm.Value, args []Reg) []rvm.Value {
	out := make([]rvm.Value, len(args))
	for i, r := range args {
		out[i] = regs[r]
	}
	return out
}

func (e *Exec) isInstance(v rvm.Value, className string) bool {
	obj := v.AsRef()
	if obj == nil {
		return false
	}
	if target, ok := e.Prog.Classes[className]; ok {
		return obj.Class.IsSubclassOf(target)
	}
	return obj.Class.Implements(className)
}

// resolveHandle resolves "Class.method" against the class table (the IR
// keeps the bytecode method around for identity; handles are compared by
// method pointer).
func (e *Exec) resolveHandle(qualified string) (*rvm.Method, error) {
	dot := strings.LastIndexByte(qualified, '.')
	if dot < 0 {
		return nil, fmt.Errorf("%w: %q", rvm.ErrNoSuchMethod, qualified)
	}
	c, ok := e.Prog.Classes[qualified[:dot]]
	if !ok {
		return nil, fmt.Errorf("%w: %s", rvm.ErrNoSuchClass, qualified[:dot])
	}
	m, ok := c.Methods[qualified[dot+1:]]
	if !ok {
		return nil, fmt.Errorf("%w: %s", rvm.ErrNoSuchMethod, qualified)
	}
	return m, nil
}

// guardName forms the §5.5 guard-table key: speculative (hoisted) guards
// carry the "Speculative " prefix recorded in Sym by the guard-motion pass.
func guardName(base, sym string) string {
	if sym == "speculative" {
		return "Speculative " + base
	}
	return base
}

func boolVal(b bool) rvm.Value {
	if b {
		return rvm.Int(1)
	}
	return rvm.Int(0)
}
