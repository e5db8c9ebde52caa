package rvm

import "fmt"

// Opcode enumerates the RVM bytecode instructions. The set mirrors the
// JVM features the paper's metrics and optimizations target: virtual,
// interface, and dynamic invocation; object and array allocation with
// checked accesses; monitors; atomic field operations; and thread-park /
// wait / notify events.
type Opcode uint8

// Bytecode opcodes.
const (
	OpNop Opcode = iota

	// Constants and locals.
	OpConstInt   // push I
	OpConstFloat // push F
	OpConstNull  // push null
	OpLoad       // push locals[A]
	OpStore      // locals[A] = pop
	OpPop        // discard top
	OpDup        // duplicate top

	// Arithmetic (float-promoting) and comparison (push int 0/1).
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpRem
	OpNeg
	OpCmpLT
	OpCmpLE
	OpCmpGT
	OpCmpGE
	OpCmpEQ
	OpCmpNE

	// Control flow. A is the absolute instruction index target.
	OpJump
	OpJumpIf    // pop; jump when truthy
	OpJumpIfNot // pop; jump when falsy
	OpReturn    // pop return value
	OpReturnVoid

	// Objects and arrays.
	OpNew      // S = class name; push ref
	OpGetField // S = field; pop obj, push value
	OpPutField // S = field; pop value, obj
	OpNewArray // pop length, push array ref
	OpALoad    // pop index, arr; push elem (bounds-checked)
	OpAStore   // pop value, index, arr (bounds-checked)
	OpArrayLen // pop arr, push length

	// Invocation. A = argument count (including receiver for instance
	// calls); arguments are popped with the receiver deepest.
	OpInvokeStatic    // S = "Class.method"
	OpInvokeVirtual   // S = method name, resolved on receiver class
	OpInvokeInterface // S = method name; receiver must implement interface (B-field via S2)
	OpInvokeDynamic   // S = "Class.method"; bootstrap: push method handle
	OpInvokeHandle    // pop A args then the handle; invoke it

	// Synchronization and atomics.
	OpMonitorEnter // pop obj
	OpMonitorExit  // pop obj
	OpCAS          // S = field; pop new, expected, obj; push success (0/1)
	OpAtomicAdd    // S = field; pop delta, obj; push previous value
	OpPark         // park point (cost + metric event)
	OpWait         // pop obj; guarded-block wait event
	OpNotify       // pop obj; notify event

	// Type tests.
	OpInstanceOf // S = class name; pop obj, push 0/1
	OpCheckCast  // S = class name; trap unless instance (null passes)

	numOpcodes
)

var opNames = [numOpcodes]string{
	"nop", "const.i", "const.f", "const.null", "load", "store", "pop", "dup",
	"add", "sub", "mul", "div", "rem", "neg",
	"cmplt", "cmple", "cmpgt", "cmpge", "cmpeq", "cmpne",
	"jump", "jumpif", "jumpifnot", "return", "return.void",
	"new", "getfield", "putfield", "newarray", "aload", "astore", "arraylen",
	"invokestatic", "invokevirtual", "invokeinterface", "invokedynamic", "invokehandle",
	"monitorenter", "monitorexit", "cas", "atomicadd", "park", "wait", "notify",
	"instanceof", "checkcast",
}

// String returns the mnemonic.
func (op Opcode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Instr is one bytecode instruction. A holds a local slot, jump target, or
// argument count; I and F hold constants; S holds a symbolic name (class,
// field, or method).
type Instr struct {
	Op Opcode
	A  int
	I  int64
	F  float64
	S  string
}

func (in Instr) String() string {
	switch in.Op {
	case OpConstInt:
		return fmt.Sprintf("%s %d", in.Op, in.I)
	case OpConstFloat:
		return fmt.Sprintf("%s %g", in.Op, in.F)
	case OpLoad, OpStore, OpJump, OpJumpIf, OpJumpIfNot:
		return fmt.Sprintf("%s %d", in.Op, in.A)
	case OpNew, OpGetField, OpPutField, OpCAS, OpAtomicAdd, OpInstanceOf, OpCheckCast, OpInvokeDynamic:
		return fmt.Sprintf("%s %s", in.Op, in.S)
	case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface:
		return fmt.Sprintf("%s %s/%d", in.Op, in.S, in.A)
	case OpInvokeHandle:
		return fmt.Sprintf("%s/%d", in.Op, in.A)
	default:
		return in.Op.String()
	}
}

// Asm builds methods' instruction lists with symbolic labels, for tests,
// the kernel builders, and the minilang code generator. Methods assembled
// one after another through one Asm share its buffer: Build hands out the
// current method's instructions as an exact-size slice of it, and Reset
// starts the next method after them without truncating, so a built method
// is never overwritten and Grow can size a whole unit's code at once.
type Asm struct {
	code    []Instr // the current method's instructions, at the buffer's tail
	labels  map[string]int
	fixups  map[int]string // instruction index -> label
	nlocals int
	loops   []asmLoop
}

type asmLoop struct {
	head             string
	idxSlot, arrSlot int
	initNonNeg       bool
}

// NewAsm creates an empty assembler.
func NewAsm() *Asm {
	return &Asm{labels: make(map[string]int), fixups: make(map[int]string)}
}

// Reset empties the assembler for the next method, which continues in the
// same buffer after the code already built.
func (a *Asm) Reset() {
	a.code = a.code[len(a.code):]
	clear(a.labels)
	clear(a.fixups)
	a.nlocals = 0
	a.loops = a.loops[:0]
}

// Grow makes room for n more instructions, so that the next n emits do
// not allocate. A new buffer takes only the method in progress: methods
// already built keep the buffer they were built in.
func (a *Asm) Grow(n int) {
	if cap(a.code)-len(a.code) >= n {
		return
	}
	code := make([]Instr, len(a.code), len(a.code)+n)
	copy(code, a.code)
	a.code = code
}

// Emit appends an instruction and returns its index.
func (a *Asm) Emit(in Instr) int {
	if len(a.code) == cap(a.code) {
		a.Grow(len(a.code) + 8)
	}
	a.code = append(a.code, in)
	return len(a.code) - 1
}

// Op emits an operand-less instruction.
func (a *Asm) Op(op Opcode) *Asm { a.Emit(Instr{Op: op}); return a }

// ConstInt emits an integer constant push.
func (a *Asm) ConstInt(v int64) *Asm { a.Emit(Instr{Op: OpConstInt, I: v}); return a }

// ConstFloat emits a float constant push.
func (a *Asm) ConstFloat(v float64) *Asm { a.Emit(Instr{Op: OpConstFloat, F: v}); return a }

// Load emits a local load; Store a local store. Both grow the local count.
func (a *Asm) Load(slot int) *Asm { a.noteLocal(slot); a.Emit(Instr{Op: OpLoad, A: slot}); return a }

// Store emits a local store.
func (a *Asm) Store(slot int) *Asm { a.noteLocal(slot); a.Emit(Instr{Op: OpStore, A: slot}); return a }

func (a *Asm) noteLocal(slot int) {
	if slot+1 > a.nlocals {
		a.nlocals = slot + 1
	}
}

// Sym emits an instruction with a symbolic operand (class/field/method).
func (a *Asm) Sym(op Opcode, s string) *Asm { a.Emit(Instr{Op: op, S: s}); return a }

// Invoke emits an invocation with a symbol and argument count.
func (a *Asm) Invoke(op Opcode, s string, argc int) *Asm {
	a.Emit(Instr{Op: op, S: s, A: argc})
	return a
}

// Label defines a label at the current position.
func (a *Asm) Label(name string) *Asm {
	a.labels[name] = len(a.code)
	return a
}

// Jump emits a branch to a label (resolved in Build).
func (a *Asm) Jump(op Opcode, label string) *Asm {
	idx := a.Emit(Instr{Op: op})
	a.fixups[idx] = label
	return a
}

// MarkLoop records loop-shape metadata for a canonical counted array loop
// whose header is at headLabel (resolved in Build). initNonNeg asserts the code
// preceding headLabel initializes idxSlot with a non-negative constant;
// the tier-1 quickener verifies every other region condition itself.
func (a *Asm) MarkLoop(headLabel string, idxSlot, arrSlot int, initNonNeg bool) *Asm {
	a.loops = append(a.loops, asmLoop{headLabel, idxSlot, arrSlot, initNonNeg})
	return a
}

// Build resolves labels and returns a method with the given name and
// argument count. The method's Code is the assembler's buffer, capped at
// its length: emitting after Build, or after Reset, never writes into it.
func (a *Asm) Build(name string, nargs int) (*Method, error) {
	code := a.code[:len(a.code):len(a.code)]
	for idx, label := range a.fixups {
		target, ok := a.labels[label]
		if !ok {
			return nil, fmt.Errorf("rvm: undefined label %q in %s", label, name)
		}
		code[idx].A = target
	}
	nlocals := a.nlocals
	if nargs > nlocals {
		nlocals = nargs
	}
	m := &Method{Name: name, NArgs: nargs, NLocals: nlocals, Code: code}
	for _, l := range a.loops {
		head, ok := a.labels[l.head]
		if !ok {
			return nil, fmt.Errorf("rvm: undefined loop label %q in %s", l.head, name)
		}
		m.Loops = append(m.Loops, LoopInfo{
			Head: head, IdxSlot: l.idxSlot, ArrSlot: l.arrSlot, InitNonNeg: l.initNonNeg,
		})
	}
	return m, nil
}

// MustBuild is Build that panics on label errors (builder bugs).
func (a *Asm) MustBuild(name string, nargs int) *Method {
	m, err := a.Build(name, nargs)
	if err != nil {
		panic(err)
	}
	return m
}
