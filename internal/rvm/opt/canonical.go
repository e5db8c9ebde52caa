package opt

import (
	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
)

// Canonicalize performs local simplifications within each block:
//
//   - constant folding of arithmetic and comparisons whose operands are
//     block-local constants;
//   - copy propagation of block-local constants through moves;
//   - removal of null guards on references freshly allocated in the same
//     block (a JIT knows `new` never yields null);
//   - folding of branches whose condition is a block-local constant.
//
// It is the cleanup pass the major optimizations rely on (e.g. DBDS
// produces branches on known conditions that canonicalization folds away,
// §5.7).
func Canonicalize(f *ir.Func, prog *ir.Program) bool {
	changed := false
	for _, b := range f.Blocks {
		consts := map[ir.Reg]rvm.Value{}
		nonNull := map[ir.Reg]bool{}
		var kept []*ir.Instr

		invalidate := func(r ir.Reg) {
			delete(consts, r)
			delete(nonNull, r)
		}

		for _, in := range b.Code {
			switch in.Op {
			case ir.OpConst:
				invalidate(in.Dst)
				consts[in.Dst] = in.Val
				kept = append(kept, in)
				continue
			case ir.OpMove:
				if v, ok := consts[in.A]; ok {
					// Rewrite the move into a constant definition.
					ni := instr(ir.OpConst)
					ni.Dst = in.Dst
					ni.Val = v
					invalidate(in.Dst)
					consts[in.Dst] = v
					kept = append(kept, &ni)
					changed = true
					continue
				}
				invalidate(in.Dst)
				if nonNull[in.A] {
					nonNull[in.Dst] = true
				}
				kept = append(kept, in)
				continue
			case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem:
				va, aok := consts[in.A]
				vb, bok := consts[in.B]
				if aok && bok {
					if v, err := rvm.Arith(ir.Bytecode[in.Op], va, vb); err == nil {
						ni := instr(ir.OpConst)
						ni.Dst = in.Dst
						ni.Val = v
						invalidate(in.Dst)
						consts[in.Dst] = v
						kept = append(kept, &ni)
						changed = true
						continue
					}
				}
				invalidate(in.Dst)
				kept = append(kept, in)
				continue
			case ir.OpCmpLT, ir.OpCmpLE, ir.OpCmpGT, ir.OpCmpGE, ir.OpCmpEQ, ir.OpCmpNE:
				va, aok := consts[in.A]
				vb, bok := consts[in.B]
				if aok && bok {
					v := rvm.Int(0)
					if rvm.Compare(ir.Bytecode[in.Op], va, vb) {
						v = rvm.Int(1)
					}
					ni := instr(ir.OpConst)
					ni.Dst = in.Dst
					ni.Val = v
					invalidate(in.Dst)
					consts[in.Dst] = v
					kept = append(kept, &ni)
					changed = true
					continue
				}
				invalidate(in.Dst)
				kept = append(kept, in)
				continue
			case ir.OpNew, ir.OpNewArray:
				invalidate(in.Dst)
				nonNull[in.Dst] = true
				kept = append(kept, in)
				continue
			case ir.OpGuardNull:
				if nonNull[in.A] {
					changed = true
					continue // provably non-null: drop the guard
				}
				kept = append(kept, in)
				continue
			case ir.OpScalarCAS:
				// A scalar-replaced CAS mutates its A register in place.
				invalidate(in.A)
				invalidate(in.Dst)
				kept = append(kept, in)
				continue
			}
			if in.Defines() {
				invalidate(in.Dst)
			}
			kept = append(kept, in)
		}
		b.Code = kept

		// Fold constant branches.
		if b.Term.Kind == ir.TermBranch {
			if v, ok := consts[b.Term.Cond]; ok {
				target := b.Term.Else
				if v.Truthy() {
					target = b.Term.To
				}
				b.Term = ir.Terminator{Kind: ir.TermJump, To: target, Cond: ir.NoReg, Ret: ir.NoReg}
				changed = true
			}
		}
	}
	if changed {
		f.Renumber()
	}
	return changed
}
