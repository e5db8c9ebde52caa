package rvm

import "fmt"

// Bytecode verification. Before a method may run on the flat-frame tier-0
// path or be quickened to tier-1, the interpreter proves that its operand
// stack is statically well-formed: every reachable instruction has one
// consistent entry depth, no path underflows, all local slots are in
// range, and all opcodes are known. The proof yields the exact
// operand-stack high-water mark, which sizes the pooled flat frame
// (locals and stack in one slice, no per-value bounds management).
//
// Methods that fail verification are not broken: they run on the original
// dynamic-stack interpreter (runDynamic), which checks every pop at
// runtime and reports the same errors the seed interpreter did. This
// keeps hand-built test methods (unknown opcodes, deliberate underflows,
// inconsistent join depths) byte-for-byte compatible.

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

// verifyMethod abstractly interprets the method's stack shape. On success
// it returns the operand-stack high-water mark and the entry depth of
// every instruction (-1 for unreachable code). Jump targets outside
// [0, len(Code)) are the seed's implicit void return and terminate a path.
func verifyMethod(m *Method) (maxStack int, depths []int, err error) {
	n := len(m.Code)
	depths = make([]int, n)
	for i := range depths {
		depths[i] = -1
	}
	if n == 0 {
		return 0, depths, nil
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
				if depths[pc] != d {
					return 0, nil, fmt.Errorf("rvm: inconsistent stack depth at %s:%d (%d vs %d)",
						m.QualifiedName(), pc, depths[pc], d)
				}
				break
			}
			depths[pc] = d
			in := m.Code[pc]
			pops, pushes, ok := stackEffect(in)
			if !ok {
				return 0, nil, fmt.Errorf("rvm: unverifiable opcode %d at %s:%d", in.Op, m.QualifiedName(), pc)
			}
			switch in.Op {
			case OpLoad, OpStore:
				if in.A < 0 || in.A >= m.NLocals {
					return 0, nil, fmt.Errorf("rvm: local slot %d out of range at %s:%d", in.A, m.QualifiedName(), pc)
				}
			case OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface, OpInvokeHandle:
				if in.A < 0 {
					return 0, nil, fmt.Errorf("rvm: negative argument count at %s:%d", m.QualifiedName(), pc)
				}
			}
			if d < pops {
				return 0, nil, fmt.Errorf("rvm: static stack underflow at %s:%d", m.QualifiedName(), pc)
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
	return maxStack, depths, nil
}

// blockLayout partitions the method into basic blocks: leaders[pc] marks
// block starts (entry, branch targets, and fall-throughs after branches
// and returns), and charges[pc] holds, at each leader, the number of
// instructions in its block — the fuel charged once on block entry
// instead of per instruction (satellite: block-granularity fuel).
func blockLayout(m *Method) (leaders map[int]bool, charges []int32) {
	n := len(m.Code)
	leaders = map[int]bool{}
	charges = make([]int32, n)
	if n == 0 {
		return leaders, charges
	}
	leaders[0] = true
	for pc, in := range m.Code {
		switch in.Op {
		case OpJump, OpJumpIf, OpJumpIfNot:
			if in.A >= 0 && in.A < n {
				leaders[in.A] = true
			}
			if pc+1 < n {
				leaders[pc+1] = true
			}
		case OpReturn, OpReturnVoid:
			if pc+1 < n {
				leaders[pc+1] = true
			}
		}
	}
	start := 0
	for pc := 1; pc < n; pc++ {
		if leaders[pc] {
			charges[start] = int32(pc - start)
			start = pc
		}
	}
	charges[start] = int32(n - start)
	return leaders, charges
}
