package opt

import (
	"slices"

	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
)

// Block-local value numbering. The bytecode-to-IR builder threads values
// through operand-stack registers with move chains; the pattern-matching
// passes compare value numbers instead of raw registers so that the
// matched shapes are insensitive to that shuffling (the way real compilers
// match patterns after canonicalization).

type blockVN struct {
	next int
	vn   map[ir.Reg]int
}

func newBlockVN() *blockVN {
	return &blockVN{vn: map[ir.Reg]int{}}
}

// valueOf returns the current value number of a register, assigning a
// fresh "entry value" on first sight.
func (v *blockVN) valueOf(r ir.Reg) int {
	if r == ir.NoReg {
		return -1
	}
	if n, ok := v.vn[r]; ok {
		return n
	}
	v.next++
	v.vn[r] = v.next
	return v.next
}

// define processes a definition: moves propagate the source's value
// number, every other definition creates a fresh one. It returns the
// destination's new value number.
func (v *blockVN) define(in *ir.Instr) int {
	if !in.Defines() {
		return -1
	}
	if in.Op == ir.OpMove {
		n := v.valueOf(in.A)
		v.vn[in.Dst] = n
		return n
	}
	v.next++
	v.vn[in.Dst] = v.next
	return v.next
}

// regsHolding returns the registers that currently hold the value number,
// in ascending order. The atomic-CAS fusion takes the first holder that
// survives, so map order would pick different registers from run to run
// and change the compiled code and its simulated cycles.
func (v *blockVN) regsHolding(n int) []ir.Reg {
	var out []ir.Reg
	for r, vn := range v.vn {
		if vn == n {
			out = append(out, r)
		}
	}
	slices.Sort(out)
	return out
}

// chaseBackward resolves the value of register r immediately before
// b.Code[idx] to the register that carried it at block entry, following
// move chains. It fails if the value was produced by a non-move
// instruction inside the block.
func chaseBackward(b *ir.Block, idx int, r ir.Reg) (ir.Reg, bool) {
	cur := r
	for i := idx - 1; i >= 0; i-- {
		in := b.Code[i]
		if mutates(in, cur) {
			if in.Op == ir.OpMove {
				cur = in.A
				continue
			}
			return ir.NoReg, false
		}
	}
	return cur, true
}

// mutates reports whether the instruction writes register r, including the
// in-place mutation of OpScalarCAS's A operand.
func mutates(in *ir.Instr, r ir.Reg) bool {
	if in.Defines() && in.Dst == r {
		return true
	}
	return in.Op == ir.OpScalarCAS && in.A == r
}

// traceValue resolves the producer of the value r holds just before
// b.Code[idx]: either the non-move instruction that defined it (chasing
// move chains within the block and, for registers inherited at block
// entry, through function-wide single definitions), or nil when the
// producer cannot be determined.
func traceValue(f *ir.Func, counts []int, sites map[ir.Reg]defSite, b *ir.Block, idx int, r ir.Reg, depth int) *ir.Instr {
	if depth > 8 || r == ir.NoReg {
		return nil
	}
	cur := r
	for i := idx - 1; i >= 0; i-- {
		in := b.Code[i]
		if mutates(in, cur) {
			if in.Op == ir.OpMove {
				cur = in.A
				continue
			}
			return in
		}
	}
	// Inherited at block entry: follow the unique function-wide
	// definition, if any.
	if int(cur) >= len(counts) || counts[cur] != 1 {
		return nil
	}
	s, ok := sites[cur]
	if !ok {
		return nil
	}
	d := s.block.Code[s.index]
	if d.Op == ir.OpMove {
		return traceValue(f, counts, sites, s.block, s.index, d.A, depth+1)
	}
	return d
}

// defSites maps every single-definition register to its definition site.
func defSites(f *ir.Func, counts []int) map[ir.Reg]defSite {
	sites := map[ir.Reg]defSite{}
	for _, b := range f.Blocks {
		for i, in := range b.Code {
			if in.Defines() && counts[in.Dst] == 1 {
				sites[in.Dst] = defSite{b, i}
			}
		}
	}
	return sites
}

// redefinedIn reports whether any instruction in the block defines r.
func redefinedIn(b *ir.Block, r ir.Reg) bool {
	for _, in := range b.Code {
		if in.Defines() && in.Dst == r {
			return true
		}
	}
	return false
}

// redefinedBeforeIdx reports whether r is defined in b.Code[:idx].
func redefinedBeforeIdx(b *ir.Block, idx int, r ir.Reg) bool {
	for i := 0; i < idx && i < len(b.Code); i++ {
		in := b.Code[i]
		if in.Defines() && in.Dst == r {
			return true
		}
	}
	return false
}

// affine is a symbolic value base + offset; base NoReg means a pure
// constant. It is produced by the positional resolvers below.
type affine struct {
	base ir.Reg
	off  int64
	ok   bool
}

// affineAt resolves the value register r holds immediately before
// b.Code[idx] into base + offset, following move/add/sub/const chains
// positionally within the block. A register with no definition before idx
// resolves to itself (its block-entry value).
func affineAt(b *ir.Block, idx int, r ir.Reg, depth int) affine {
	if r == ir.NoReg || depth > 16 {
		return affine{}
	}
	for i := idx - 1; i >= 0; i-- {
		in := b.Code[i]
		if !mutates(in, r) {
			continue
		}
		if in.Op == ir.OpScalarCAS {
			return affine{} // opaque in-place mutation
		}
		return instrAffine(b, i, in, depth+1)
	}
	return affine{base: r, ok: true}
}

// instrAffine resolves the value produced by the defining instruction at
// b.Code[i].
func instrAffine(b *ir.Block, i int, in *ir.Instr, depth int) affine {
	switch in.Op {
	case ir.OpConst:
		if in.Val.Kind() == rvm.KindInt {
			return affine{base: ir.NoReg, off: in.Val.AsInt(), ok: true}
		}
	case ir.OpMove:
		return affineAt(b, i, in.A, depth)
	case ir.OpAdd:
		lhs := affineAt(b, i, in.A, depth)
		rhs := affineAt(b, i, in.B, depth)
		switch {
		case lhs.ok && rhs.ok && rhs.base == ir.NoReg:
			return affine{base: lhs.base, off: lhs.off + rhs.off, ok: true}
		case lhs.ok && rhs.ok && lhs.base == ir.NoReg:
			return affine{base: rhs.base, off: lhs.off + rhs.off, ok: true}
		}
	case ir.OpSub:
		lhs := affineAt(b, i, in.A, depth)
		rhs := affineAt(b, i, in.B, depth)
		if lhs.ok && rhs.ok && rhs.base == ir.NoReg {
			return affine{base: lhs.base, off: lhs.off - rhs.off, ok: true}
		}
	}
	return affine{}
}
