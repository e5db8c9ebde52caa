package opt

import (
	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
)

// GuardMotion implements §5.5, speculative guard motion: guards inside
// loops are hoisted to the loop preheader even when the loop's control
// flow does not always lead to them. Loop-invariant guards move directly;
// bounds checks on affine induction variables are rewritten into two
// preheader guards on the induction range's endpoints ("comparisons of
// induction variables can be rewritten to loop-invariant versions").
// Hoisted guards are tagged "speculative", which the executor reports
// under the Speculative* rows of the §5.5 guard table. As the paper
// argues, a hoisted guard implies the original one, so the transformed
// program deoptimizes in at least as many cases — executing extra guards
// is always sound.
func GuardMotion(f *ir.Func, prog *ir.Program) bool {
	changed := false
	for _, l := range ir.FindLoops(f) {
		if hoistLoopGuards(f, l) {
			changed = true
		}
	}
	if changed {
		f.Renumber()
	}
	return changed
}

// loopResolver records in-loop definitions for invariance checks.
type loopResolver struct {
	defs map[ir.Reg][]*ir.Instr
	at   map[*ir.Instr]defSite
}

type defSite struct {
	block *ir.Block
	index int
}

func newLoopResolver(l *ir.Loop) *loopResolver {
	r := &loopResolver{defs: map[ir.Reg][]*ir.Instr{}, at: map[*ir.Instr]defSite{}}
	for b := range l.Blocks {
		for i, in := range b.Code {
			if in.Defines() {
				r.defs[in.Dst] = append(r.defs[in.Dst], in)
				r.at[in] = defSite{b, i}
			}
		}
	}
	return r
}

// invariant reports whether the register has no definition inside the loop.
func (r *loopResolver) invariant(reg ir.Reg) bool { return len(r.defs[reg]) == 0 }

// inductionStep returns the positive step of reg if it is an induction
// variable: its unique in-loop definition resolves positionally to
// reg + step.
func (r *loopResolver) inductionStep(reg ir.Reg) (int64, bool) {
	ds := r.defs[reg]
	if len(ds) != 1 {
		return 0, false
	}
	site := r.at[ds[0]]
	a := instrAffine(site.block, site.index, ds[0], 0)
	if !a.ok || a.base != reg || a.off < 1 {
		return 0, false
	}
	return a.off, true
}

// loopBound is the loop's exit comparison: an induction variable (plus
// offset) bounded above by an invariant limit.
type loopBound struct {
	indVar   ir.Reg
	indOff   int64
	limit    affine // invariant base + offset, or pure constant
	strict   bool   // true for <, false for <=
	resolved bool
}

func (r *loopResolver) headerBound(l *ir.Loop) loopBound {
	h := l.Header
	if h.Term.Kind != ir.TermBranch {
		return loopBound{}
	}
	var cmp *ir.Instr
	cmpIdx := -1
	for i, in := range h.Code {
		if in.Defines() && in.Dst == h.Term.Cond {
			cmp, cmpIdx = in, i
		}
	}
	if cmp == nil {
		return loopBound{}
	}
	bodyOnTrue := l.Blocks[h.Term.To]
	bodyOnFalse := l.Blocks[h.Term.Else]
	if bodyOnTrue == bodyOnFalse {
		return loopBound{}
	}

	lhs := affineAt(h, cmpIdx, cmp.A, 0)
	rhs := affineAt(h, cmpIdx, cmp.B, 0)
	if !lhs.ok || !rhs.ok {
		return loopBound{}
	}

	// Normalize to "induction OP limit continues the loop". Only
	// bounded-above loops are handled.
	var ind, lim affine
	var strict bool
	switch cmp.Op {
	case ir.OpCmpLT:
		if !bodyOnTrue {
			return loopBound{}
		}
		ind, lim, strict = lhs, rhs, true
	case ir.OpCmpLE:
		if !bodyOnTrue {
			return loopBound{}
		}
		ind, lim, strict = lhs, rhs, false
	case ir.OpCmpGT:
		if !bodyOnTrue {
			return loopBound{}
		}
		ind, lim, strict = rhs, lhs, true
	case ir.OpCmpGE:
		if !bodyOnTrue {
			return loopBound{}
		}
		ind, lim, strict = rhs, lhs, false
	default:
		return loopBound{}
	}
	if ind.base == ir.NoReg {
		return loopBound{}
	}
	if _, isInd := r.inductionStep(ind.base); !isInd {
		return loopBound{}
	}
	if lim.base != ir.NoReg && !r.invariant(lim.base) {
		return loopBound{}
	}
	return loopBound{
		indVar: ind.base, indOff: ind.off,
		limit: lim, strict: strict, resolved: true,
	}
}

func hoistLoopGuards(f *ir.Func, l *ir.Loop) bool {
	// Preheader: the unique out-of-loop predecessor of the header, ending
	// in an unconditional jump (so hoisted guards run exactly when the
	// loop is entered).
	pre := l.Preheader(f)
	if pre == nil {
		return false
	}

	res := newLoopResolver(l)
	bound := res.headerBound(l)

	type hoistedKey struct {
		op   ir.Op
		a, b ir.Reg
	}
	seen := map[hoistedKey]bool{}
	var hoisted []*ir.Instr
	changed := false

	emitConst := func(v int64) ir.Reg {
		r := f.NewReg()
		c := instr(ir.OpConst)
		c.Dst = r
		c.Val = rvm.Int(v)
		hoisted = append(hoisted, &c)
		return r
	}
	emitAddConst := func(base ir.Reg, off int64) ir.Reg {
		if off == 0 {
			return base
		}
		cr := emitConst(off)
		r := f.NewReg()
		add := instr(ir.OpAdd)
		add.Dst = r
		add.A = base
		add.B = cr
		hoisted = append(hoisted, &add)
		return r
	}
	emitGuard := func(op ir.Op, a, b ir.Reg) {
		k := hoistedKey{op, a, b}
		if seen[k] {
			return
		}
		seen[k] = true
		g := instr(op)
		g.A = a
		g.B = b
		g.Sym = "speculative"
		hoisted = append(hoisted, &g)
	}

	for b := range l.Blocks {
		var kept []*ir.Instr
		for i, in := range b.Code {
			switch in.Op {
			case ir.OpGuardNull:
				ref := affineAt(b, i, in.A, 0)
				if ref.ok && ref.base != ir.NoReg && ref.off == 0 && res.invariant(ref.base) {
					emitGuard(ir.OpGuardNull, ref.base, ir.NoReg)
					changed = true
					continue
				}
			case ir.OpGuardBounds:
				arr := affineAt(b, i, in.A, 0)
				if !arr.ok || arr.base == ir.NoReg || arr.off != 0 || !res.invariant(arr.base) {
					break
				}
				idx := affineAt(b, i, in.B, 0)
				if !idx.ok {
					break
				}
				switch {
				case idx.base == ir.NoReg:
					// Constant index.
					emitGuard(ir.OpGuardBounds, arr.base, emitConst(idx.off))
					changed = true
					continue
				case res.invariant(idx.base):
					emitGuard(ir.OpGuardBounds, arr.base, emitAddConst(idx.base, idx.off))
					changed = true
					continue
				case bound.resolved && idx.base == bound.indVar:
					// Affine in the induction variable: guard both range
					// endpoints in the preheader. At the preheader the
					// induction register still holds its initial value.
					lo := emitAddConst(idx.base, idx.off)
					emitGuard(ir.OpGuardBounds, arr.base, lo)
					// Maximum guarded index: the largest induction value
					// that continues the loop, plus the index offset
					// (conservative for steps > 1 — the hoisted guard
					// implies the original, as the paper requires).
					maxOff := bound.limit.off - bound.indOff + idx.off
					if bound.strict {
						maxOff--
					}
					var hi ir.Reg
					if bound.limit.base == ir.NoReg {
						hi = emitConst(maxOff)
					} else {
						hi = emitAddConst(bound.limit.base, maxOff)
					}
					emitGuard(ir.OpGuardBounds, arr.base, hi)
					changed = true
					continue
				}
			}
			kept = append(kept, in)
		}
		b.Code = kept
	}

	if changed {
		pre.Code = append(pre.Code, hoisted...)
	}
	return changed
}
