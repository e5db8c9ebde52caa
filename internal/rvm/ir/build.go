package ir

import (
	"fmt"

	"renaissance/internal/rvm"
)

// BuildProgram translates every method of the bytecode program to IR.
func BuildProgram(p *rvm.Program) (*Program, error) {
	out := &Program{
		Funcs:   make(map[string]*Func),
		Classes: p.Classes,
	}
	for _, m := range p.Methods() {
		f, err := BuildFunc(m)
		if err != nil {
			return nil, fmt.Errorf("ir: building %s: %w", m.QualifiedName(), err)
		}
		out.Funcs[m.QualifiedName()] = f
	}
	if p.Entry != nil {
		out.Entry = p.Entry.QualifiedName()
	}
	return out, nil
}

// BuildFunc translates one bytecode method to IR: local slot i becomes
// register i, and operand-stack depth d becomes register NLocals+d.
// Explicit GuardNull/GuardBounds instructions are inserted before
// unchecked memory accesses, the way a JIT compiler expands the JVM's
// implicit checks into guard nodes (§5.5). The stack shape is not derived
// here but taken from rvm.Verify, so BuildFunc refuses exactly the
// methods the interpreters refuse (the error wraps rvm.ErrVerify) and
// translates the reachable blocks the verifier found. Control flow that
// leaves [0, len(Code)) is an implicit void return, as in the
// interpreters.
func BuildFunc(m *rvm.Method) (*Func, error) {
	maxStack, depths, blocks, err := rvm.Verify(m)
	if err != nil {
		return nil, err
	}
	f := &Func{Name: m.QualifiedName(), NArgs: m.NArgs, NRegs: m.NLocals + maxStack}
	n := len(m.Code)
	blockAt := make([]*Block, n)
	for pc := range m.Code {
		if blocks[pc] != 0 && depths[pc] >= 0 {
			blockAt[pc] = f.NewBlock()
		}
	}
	var exit *Block // shared implicit void return, made on first use
	target := func(pc int) *Block {
		if pc >= 0 && pc < n {
			return blockAt[pc]
		}
		if exit == nil {
			exit = f.NewBlock()
			exit.Term = Terminator{Kind: TermReturnVoid, Ret: NoReg, Cond: NoReg}
		}
		return exit
	}
	f.Entry = target(0) // an empty method is just the void return
	stackReg := func(depth int) Reg { return Reg(m.NLocals + depth) }

	for start, b := range blockAt {
		if b == nil {
			continue
		}
		depth := int(depths[start])
		emit := func(in Instr) { b.Code = append(b.Code, &in) }
		push := func() Reg { r := stackReg(depth); depth++; return r }
		pop := func() Reg { depth--; return stackReg(depth) }

		end := start + int(blocks[start])
		// A block that does not end in a branch or return falls through
		// to the next block, or off the end of the code.
		if end < n {
			b.Term = Terminator{Kind: TermJump, To: blockAt[end], Cond: NoReg, Ret: NoReg}
		} else {
			b.Term = Terminator{Kind: TermReturnVoid, Ret: NoReg, Cond: NoReg}
		}
		for pc := start; pc < end; pc++ {
			in := m.Code[pc]
			switch in.Op {
			case rvm.OpNop:

			case rvm.OpConstInt:
				emit(Instr{Op: OpConst, Dst: push(), Val: rvm.Int(in.I), A: NoReg, B: NoReg, C: NoReg})
			case rvm.OpConstFloat:
				emit(Instr{Op: OpConst, Dst: push(), Val: rvm.Float(in.F), A: NoReg, B: NoReg, C: NoReg})
			case rvm.OpConstNull:
				emit(Instr{Op: OpConst, Dst: push(), Val: rvm.Null(), A: NoReg, B: NoReg, C: NoReg})
			case rvm.OpLoad:
				emit(Instr{Op: OpMove, Dst: push(), A: Reg(in.A), B: NoReg, C: NoReg})
			case rvm.OpStore:
				src := pop()
				emit(Instr{Op: OpMove, Dst: Reg(in.A), A: src, B: NoReg, C: NoReg})
			case rvm.OpPop:
				pop()
			case rvm.OpDup:
				top := stackReg(depth - 1)
				emit(Instr{Op: OpMove, Dst: push(), A: top, B: NoReg, C: NoReg})

			case rvm.OpAdd, rvm.OpSub, rvm.OpMul, rvm.OpDiv, rvm.OpRem:
				rb := pop()
				ra := pop()
				emit(Instr{Op: arithOp(in.Op), Dst: push(), A: ra, B: rb, C: NoReg})
			case rvm.OpNeg:
				ra := pop()
				emit(Instr{Op: OpNeg, Dst: push(), A: ra, B: NoReg, C: NoReg})
			case rvm.OpCmpLT, rvm.OpCmpLE, rvm.OpCmpGT, rvm.OpCmpGE, rvm.OpCmpEQ, rvm.OpCmpNE:
				rb := pop()
				ra := pop()
				emit(Instr{Op: cmpOp(in.Op), Dst: push(), A: ra, B: rb, C: NoReg})

			case rvm.OpJump:
				b.Term = Terminator{Kind: TermJump, To: target(in.A), Cond: NoReg, Ret: NoReg}
			case rvm.OpJumpIf, rvm.OpJumpIfNot:
				taken, fall := target(in.A), target(pc+1)
				t := Terminator{Kind: TermBranch, Cond: pop(), To: taken, Else: fall, Ret: NoReg}
				if in.Op == rvm.OpJumpIfNot {
					t.To, t.Else = fall, taken
				}
				b.Term = t
			case rvm.OpReturn:
				b.Term = Terminator{Kind: TermReturn, Ret: pop(), Cond: NoReg}
			case rvm.OpReturnVoid:
				b.Term = Terminator{Kind: TermReturnVoid, Ret: NoReg, Cond: NoReg}

			case rvm.OpNew:
				emit(Instr{Op: OpNew, Dst: push(), Sym: in.S, A: NoReg, B: NoReg, C: NoReg})
			case rvm.OpGetField:
				obj := pop()
				emit(Instr{Op: OpGuardNull, A: obj, Dst: NoReg, B: NoReg, C: NoReg})
				emit(Instr{Op: OpGetField, Dst: push(), A: obj, Sym: in.S, B: NoReg, C: NoReg})
			case rvm.OpPutField:
				val := pop()
				obj := pop()
				emit(Instr{Op: OpGuardNull, A: obj, Dst: NoReg, B: NoReg, C: NoReg})
				emit(Instr{Op: OpPutField, A: obj, B: val, Sym: in.S, Dst: NoReg, C: NoReg})
			case rvm.OpNewArray:
				n := pop()
				emit(Instr{Op: OpNewArray, Dst: push(), A: n, B: NoReg, C: NoReg})
			case rvm.OpALoad:
				idx := pop()
				arr := pop()
				emit(Instr{Op: OpGuardNull, A: arr, Dst: NoReg, B: NoReg, C: NoReg})
				emit(Instr{Op: OpGuardBounds, A: arr, B: idx, Dst: NoReg, C: NoReg})
				emit(Instr{Op: OpALoad, Dst: push(), A: arr, B: idx, C: NoReg})
			case rvm.OpAStore:
				val := pop()
				idx := pop()
				arr := pop()
				emit(Instr{Op: OpGuardNull, A: arr, Dst: NoReg, B: NoReg, C: NoReg})
				emit(Instr{Op: OpGuardBounds, A: arr, B: idx, Dst: NoReg, C: NoReg})
				emit(Instr{Op: OpAStore, A: arr, B: idx, C: val, Dst: NoReg})
			case rvm.OpArrayLen:
				arr := pop()
				emit(Instr{Op: OpGuardNull, A: arr, Dst: NoReg, B: NoReg, C: NoReg})
				emit(Instr{Op: OpArrayLen, Dst: push(), A: arr, B: NoReg, C: NoReg})

			case rvm.OpInvokeStatic, rvm.OpInvokeVirtual, rvm.OpInvokeInterface:
				args := make([]Reg, in.A)
				for i := in.A - 1; i >= 0; i-- {
					args[i] = pop()
				}
				op := OpCallStatic
				if in.Op != rvm.OpInvokeStatic {
					op = OpCallVirt
					if len(args) > 0 {
						emit(Instr{Op: OpGuardNull, A: args[0], Dst: NoReg, B: NoReg, C: NoReg})
					}
				}
				emit(Instr{Op: op, Dst: push(), Sym: in.S, Args: args, A: NoReg, B: NoReg, C: NoReg})
			case rvm.OpInvokeDynamic:
				emit(Instr{Op: OpMakeHandle, Dst: push(), Sym: in.S, A: NoReg, B: NoReg, C: NoReg})
			case rvm.OpInvokeHandle:
				args := make([]Reg, in.A)
				for i := in.A - 1; i >= 0; i-- {
					args[i] = pop()
				}
				h := pop()
				emit(Instr{Op: OpCallHandle, Dst: push(), A: h, Args: args, B: NoReg, C: NoReg})

			case rvm.OpMonitorEnter, rvm.OpMonitorExit:
				obj := pop()
				emit(Instr{Op: OpGuardNull, A: obj, Dst: NoReg, B: NoReg, C: NoReg})
				op := OpMonitorEnter
				if in.Op == rvm.OpMonitorExit {
					op = OpMonitorExit
				}
				emit(Instr{Op: op, A: obj, Dst: NoReg, B: NoReg, C: NoReg})
			case rvm.OpCAS:
				nv := pop()
				exp := pop()
				obj := pop()
				emit(Instr{Op: OpGuardNull, A: obj, Dst: NoReg, B: NoReg, C: NoReg})
				emit(Instr{Op: OpCAS, Dst: push(), A: obj, B: exp, C: nv, Sym: in.S})
			case rvm.OpAtomicAdd:
				delta := pop()
				obj := pop()
				emit(Instr{Op: OpGuardNull, A: obj, Dst: NoReg, B: NoReg, C: NoReg})
				emit(Instr{Op: OpAtomicAdd, Dst: push(), A: obj, B: delta, Sym: in.S, C: NoReg})
			case rvm.OpPark:
				emit(Instr{Op: OpPark, Dst: NoReg, A: NoReg, B: NoReg, C: NoReg})
			case rvm.OpWait, rvm.OpNotify:
				obj := pop()
				op := OpWait
				if in.Op == rvm.OpNotify {
					op = OpNotify
				}
				emit(Instr{Op: op, A: obj, Dst: NoReg, B: NoReg, C: NoReg})

			case rvm.OpInstanceOf:
				obj := pop()
				emit(Instr{Op: OpInstanceOf, Dst: push(), A: obj, Sym: in.S, B: NoReg, C: NoReg})
			case rvm.OpCheckCast:
				obj := pop()
				emit(Instr{Op: OpCheckCast, Dst: push(), A: obj, Sym: in.S, B: NoReg, C: NoReg})
			}
		}
	}

	f.Renumber()
	return f, nil
}

func arithOp(op rvm.Opcode) Op {
	switch op {
	case rvm.OpAdd:
		return OpAdd
	case rvm.OpSub:
		return OpSub
	case rvm.OpMul:
		return OpMul
	case rvm.OpDiv:
		return OpDiv
	default:
		return OpRem
	}
}

func cmpOp(op rvm.Opcode) Op {
	switch op {
	case rvm.OpCmpLT:
		return OpCmpLT
	case rvm.OpCmpLE:
		return OpCmpLE
	case rvm.OpCmpGT:
		return OpCmpGT
	case rvm.OpCmpGE:
		return OpCmpGE
	case rvm.OpCmpEQ:
		return OpCmpEQ
	default:
		return OpCmpNE
	}
}

// Bytecode is the inverse of arithOp and cmpOp: indexed by an arithmetic
// or comparison op, the rvm opcode it was built from, so that Exec,
// OpVecArith and constant folding evaluate through rvm.Arith and
// rvm.Compare. It is a table, not a switch, because Exec looks it up on
// every arithmetic and comparison instruction.
var Bytecode = [...]rvm.Opcode{
	OpAdd: rvm.OpAdd, OpSub: rvm.OpSub, OpMul: rvm.OpMul, OpDiv: rvm.OpDiv, OpRem: rvm.OpRem,
	OpCmpLT: rvm.OpCmpLT, OpCmpLE: rvm.OpCmpLE, OpCmpGT: rvm.OpCmpGT,
	OpCmpGE: rvm.OpCmpGE, OpCmpEQ: rvm.OpCmpEQ, OpCmpNE: rvm.OpCmpNE,
}
