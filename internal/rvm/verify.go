package rvm

import "fmt"

// Bytecode verification: the RVM's one definition of well-formed
// bytecode. Before a method runs on tier-0, is quickened to tier-1, or is
// translated to IR (rvm/ir.BuildFunc), Verify proves that its operand
// stack is statically well-formed: every reachable instruction has one
// consistent entry depth, no path underflows, all local slots are in
// range, every argument count is non-negative, and all opcodes are known.
// The proof yields the exact operand-stack high-water mark, which sizes
// the pooled flat frame (locals and stack in one slice, no per-value
// bounds management), and the basic-block layout that drives
// block-granularity fuel, quickening and IR construction.
//
// A method that fails verification never runs: the interpreter verifies
// it once, at its first invocation, and every invocation then traps with
// the verifier's error, the way a JVM throws VerifyError at link time.
// Control flow that leaves [0, len(Code)) — a jump target or
// fall-through outside the method — is an implicit void return.

// stackEffect returns how many operand-stack slots the instruction pops
// and pushes. Control-flow successors are the caller's concern. ok is
// false for opcodes the verifier does not understand.
func stackEffect(in Instr) (pops, pushes int, ok bool) {
	switch in.Op {
	case OpNop, OpPark, OpJump, OpReturnVoid:
		return 0, 0, true
	case OpConstInt, OpConstFloat, OpConstNull, OpLoad, OpNew, OpInvokeDynamic:
		return 0, 1, true
	case OpStore, OpPop, OpJumpIf, OpJumpIfNot, OpReturn,
		OpMonitorEnter, OpMonitorExit, OpWait, OpNotify:
		return 1, 0, true
	case OpDup:
		return 1, 2, true
	case OpNeg, OpGetField, OpNewArray, OpArrayLen, OpInstanceOf, OpCheckCast:
		return 1, 1, true
	case OpAdd, OpSub, OpMul, OpDiv, OpRem,
		OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE, OpCmpEQ, OpCmpNE,
		OpALoad, OpAtomicAdd:
		return 2, 1, true
	case OpPutField:
		return 2, 0, true
	case OpAStore:
		return 3, 0, true
	case OpCAS:
		return 3, 1, true
	case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface:
		return in.A, 1, true
	case OpInvokeHandle:
		return in.A + 1, 1, true
	}
	return 0, 0, false
}

// Verify abstractly interprets the method's stack shape — the only
// place the RVM derives it. On success it returns the operand-stack
// high-water mark, the entry depth of every instruction (-1 for
// unreachable code), and the basic-block layout: blocks[pc] is non-zero
// exactly at block leaders (entry, in-range branch targets, and
// fall-throughs after branches and returns) and holds the number of
// instructions in the block starting there. Every error wraps ErrVerify.
func Verify(m *Method) (maxStack int, depths []int32, blocks []int32, err error) {
	n := len(m.Code)
	depths = make([]int32, n)
	for i := range depths {
		depths[i] = -1
	}
	fail := func(pc int, format string, args ...any) error {
		return fmt.Errorf("%w: %s at %s:%d", ErrVerify, fmt.Sprintf(format, args...), m.QualifiedName(), pc)
	}
	type item struct{ pc, depth int }
	work := []item{{0, 0}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		pc, d := it.pc, it.depth
	path:
		for pc >= 0 && pc < n {
			if depths[pc] >= 0 {
				if int(depths[pc]) != d {
					return 0, nil, nil, fail(pc, "inconsistent stack depth (%d vs %d)", depths[pc], d)
				}
				break
			}
			depths[pc] = int32(d)
			in := m.Code[pc]
			pops, pushes, ok := stackEffect(in)
			if !ok {
				return 0, nil, nil, fail(pc, "unknown opcode %d", in.Op)
			}
			switch in.Op {
			case OpLoad, OpStore:
				if in.A < 0 || in.A >= m.NLocals {
					return 0, nil, nil, fail(pc, "local slot %d out of range", in.A)
				}
			case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface, OpInvokeHandle:
				if in.A < 0 {
					return 0, nil, nil, fail(pc, "negative argument count %d", in.A)
				}
			}
			if d < pops {
				return 0, nil, nil, fail(pc, "stack underflow")
			}
			d = d - pops + pushes
			if d > maxStack {
				maxStack = d
			}
			switch in.Op {
			case OpJump:
				pc = in.A
			case OpJumpIf, OpJumpIfNot:
				if t := in.A; t >= 0 && t < n {
					work = append(work, item{t, d})
				}
				pc++
			case OpReturn, OpReturnVoid:
				break path
			default:
				pc++
			}
		}
	}
	return maxStack, depths, blockLayout(m.Code), nil
}

// blockLayout returns the per-pc block sizes Verify reports: non-zero
// exactly at leaders, holding the block's instruction count — which is
// also the fuel charged once on block entry instead of per instruction.
func blockLayout(code []Instr) []int32 {
	n := len(code)
	blocks := make([]int32, n)
	lead := func(pc int) {
		if pc >= 0 && pc < n {
			blocks[pc] = 1
		}
	}
	lead(0)
	for pc, in := range code {
		switch in.Op {
		case OpJump, OpJumpIf, OpJumpIfNot:
			lead(in.A)
			lead(pc + 1)
		case OpReturn, OpReturnVoid:
			lead(pc + 1)
		}
	}
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc == n || blocks[pc] != 0 {
			blocks[start] = int32(pc - start)
			start = pc
		}
	}
	return blocks
}
