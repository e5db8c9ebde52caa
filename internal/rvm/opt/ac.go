package opt

import "renaissance/internal/rvm/ir"

// CoalesceAtomics implements §5.3, atomic-operation coalescing: two
// consecutive CAS retry loops on the same field, each of the canonical
// shape
//
//	do { v = READ(x); nv = f(v) } while (!CAS(x, v, nv))
//
// with referentially transparent f, are fused into a single retry loop
// computing f2(f1(v)) and issuing one CAS. The paper's soundness argument
// (§5.3) maps every schedule of the fused program onto a schedule of the
// original in which no other thread runs between the two CASes; under the
// Java memory model, programs may not assume they observe the intermediate
// value.
func CoalesceAtomics(f *ir.Func, prog *ir.Program) bool {
	changed := false
	for {
		if !coalesceOne(f) {
			break
		}
		changed = true
	}
	if changed {
		f.Renumber()
	}
	return changed
}

// retryLoop describes one matched single-block CAS retry loop. Matching is
// by value number, so the builder's operand-stack move chains do not
// obscure the shape.
type retryLoop struct {
	block   *ir.Block
	objRoot ir.Reg // object register at block entry
	field   string
	loadIdx int // index of the field load
	casIdx  int // index of the CAS (last instruction)
	load    *ir.Instr
	exitTo  *ir.Block
	// expHolders are the registers holding the loaded value after the
	// block's straight-line code (candidates for the fused CAS's expected
	// operand).
	expHolders []ir.Reg
	// newHolders hold the computed new value at block end.
	newHolders []ir.Reg
}

func matchRetryLoop(b *ir.Block) *retryLoop {
	// Terminator: branch ok ? exit : b (retry backedge to self).
	t := b.Term
	if t.Kind != ir.TermBranch || t.Else != b || t.To == b {
		return nil
	}
	rl := &retryLoop{block: b, exitTo: t.To, loadIdx: -1, casIdx: -1}
	vn := newBlockVN()
	var loadedVN, newVN, okVN int
	for i, in := range b.Code {
		switch in.Op {
		case ir.OpGetField:
			if rl.loadIdx >= 0 {
				return nil // more than one load
			}
			rl.loadIdx = i
			rl.load = in
			rl.field = in.Sym
			loadedVN = func() int { vn.valueOf(in.A); return vn.define(in) }()
		case ir.OpCAS:
			if rl.casIdx >= 0 || rl.loadIdx < 0 {
				return nil
			}
			rl.casIdx = i
			// The CAS must target the same object value and field, expect
			// the loaded value, and its success flag must drive the branch.
			if in.Sym != rl.field {
				return nil
			}
			objEntryLoad, ok1 := chaseBackward(b, rl.loadIdx, rl.load.A)
			objEntryCAS, ok2 := chaseBackward(b, i, in.A)
			if !ok1 || !ok2 || objEntryLoad != objEntryCAS {
				return nil
			}
			rl.objRoot = objEntryLoad
			if vn.valueOf(in.B) != loadedVN {
				return nil
			}
			newVN = vn.valueOf(in.C)
			okVN = vn.define(in)
		case ir.OpGuardNull:
			vn.valueOf(in.A)
		case ir.OpConst, ir.OpMove, ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv,
			ir.OpRem, ir.OpNeg, ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT,
			ir.OpCmpGE, ir.OpCmpEQ, ir.OpCmpNE:
			for _, u := range in.Uses() {
				vn.valueOf(u)
			}
			vn.define(in)
		default:
			return nil
		}
	}
	if rl.casIdx != len(b.Code)-1 || rl.casIdx < 0 {
		return nil
	}
	// The branch condition must be the CAS success flag.
	if vn.valueOf(t.Cond) != okVN {
		return nil
	}
	// The entry object register must not be redefined in the block.
	if redefinedIn(b, rl.objRoot) {
		return nil
	}
	rl.expHolders = vn.regsHolding(loadedVN)
	rl.newHolders = vn.regsHolding(newVN)
	if len(rl.expHolders) == 0 || len(rl.newHolders) == 0 {
		return nil
	}
	return rl
}

func coalesceOne(f *ir.Func) bool {
	f.RecomputePreds()
	for _, b := range f.Blocks {
		first := matchRetryLoop(b)
		if first == nil {
			continue
		}
		second := matchRetryLoop(first.exitTo)
		if second == nil || second.block == b {
			continue
		}
		if second.objRoot != first.objRoot || second.field != first.field {
			continue
		}
		// The second loop must only be entered from the first (plus its
		// own backedge), or fusing would change other paths.
		okPreds := true
		for _, p := range second.block.Preds {
			if p != first.block && p != second.block {
				okPreds = false
				break
			}
		}
		if !okPreds {
			continue
		}
		if fuse(f, first, second) {
			return true
		}
	}
	return false
}

// fuse rewrites the first loop block into the combined retry loop
//
//	v = READ(x); nv1 = f1(v); v2' = nv1; nv2 = f2(v2'); CAS(x, v, nv2)
//
// branching to the second loop's exit on success.
func fuse(f *ir.Func, first, second *retryLoop) bool {
	// Pick a register carrying f1's result that the second body does not
	// clobber before (or at) its load position, to bridge the values.
	bridgeSrc := ir.NoReg
	for _, r := range first.newHolders {
		if !redefinedBeforeIdx(second.block, second.loadIdx+1, r) {
			bridgeSrc = r
			break
		}
	}
	// Pick a register carrying the originally loaded value that survives
	// the whole second body: it becomes the fused CAS's expected operand.
	expReg := ir.NoReg
	for _, r := range first.expHolders {
		if !redefinedIn(second.block, r) {
			expReg = r
			break
		}
	}
	// The second body's computed value at its end.
	newReg := ir.NoReg
	for _, r := range second.newHolders {
		if r != ir.NoReg {
			newReg = r
			break
		}
	}
	if bridgeSrc == ir.NoReg || expReg == ir.NoReg || newReg == ir.NoReg {
		return false
	}

	var code []*ir.Instr
	code = append(code, first.block.Code[:first.casIdx]...)
	for i, in := range second.block.Code {
		switch i {
		case second.loadIdx:
			mv := instr(ir.OpMove)
			mv.Dst = second.load.Dst
			mv.A = bridgeSrc
			code = append(code, &mv)
		case second.casIdx:
			// dropped; replaced by the fused CAS below
		default:
			code = append(code, in)
		}
	}
	okReg := f.NewReg()
	cas := instr(ir.OpCAS)
	cas.Dst = okReg
	cas.A = first.objRoot
	cas.B = expReg
	cas.C = newReg
	cas.Sym = first.field
	code = append(code, &cas)

	first.block.Code = code
	first.block.Term = ir.Terminator{
		Kind: ir.TermBranch,
		Cond: okReg,
		To:   second.exitTo,
		Else: first.block,
		Ret:  ir.NoReg,
	}
	return true
}
