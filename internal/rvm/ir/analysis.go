package ir

// Analyses shared by the optimization passes: dominators, natural loops,
// definition counts, and liveness.

// Dominators computes the immediate-dominator-based dominance relation
// with the iterative data-flow algorithm. dom[b] is the set of blocks
// dominating b (including b itself).
func Dominators(f *Func) map[*Block]map[*Block]bool {
	f.RecomputePreds()
	all := map[*Block]bool{}
	for _, b := range f.Blocks {
		all[b] = true
	}
	dom := map[*Block]map[*Block]bool{}
	for _, b := range f.Blocks {
		if b == f.Entry {
			dom[b] = map[*Block]bool{b: true}
		} else {
			full := map[*Block]bool{}
			for k := range all {
				full[k] = true
			}
			dom[b] = full
		}
	}
	changed := true
	for changed {
		changed = false
		for _, b := range f.Blocks {
			if b == f.Entry {
				continue
			}
			var inter map[*Block]bool
			for _, p := range b.Preds {
				if inter == nil {
					inter = map[*Block]bool{}
					for k := range dom[p] {
						inter[k] = true
					}
				} else {
					for k := range inter {
						if !dom[p][k] {
							delete(inter, k)
						}
					}
				}
			}
			if inter == nil {
				inter = map[*Block]bool{}
			}
			inter[b] = true
			if len(inter) != len(dom[b]) {
				dom[b] = inter
				changed = true
				continue
			}
			for k := range inter {
				if !dom[b][k] {
					dom[b] = inter
					changed = true
					break
				}
			}
		}
	}
	return dom
}

// Loop is a natural loop: a header and the set of blocks in its body
// (including the header).
type Loop struct {
	Header *Block
	Blocks map[*Block]bool
	// Latches are the in-loop predecessors of the header (back edges).
	Latches []*Block
}

// Preheader returns the loop's unique out-of-loop predecessor when it ends
// in an unconditional jump to the header, or nil. Passes that hoist code
// out of a loop (guard motion) or reason about the induction variable's
// initial value (bounds-check elimination) need this block: code placed in
// it runs exactly once per loop entry, and its final register state is the
// state the header observes on the first iteration.
func (l *Loop) Preheader(f *Func) *Block {
	f.RecomputePreds()
	var pre *Block
	for _, p := range l.Header.Preds {
		if l.Blocks[p] {
			continue
		}
		if pre != nil {
			return nil
		}
		pre = p
	}
	if pre == nil || pre.Term.Kind != TermJump || pre.Term.To != l.Header {
		return nil
	}
	return pre
}

// OnlyLoopSuccessor reports whether every in-loop successor of b is the
// loop header. A definition in such a block cannot reach any other in-loop
// block without control first re-entering the header — the property
// bounds-check elimination needs of the induction variable's increment.
func (l *Loop) OnlyLoopSuccessor(b *Block) bool {
	for _, s := range b.Term.Succs() {
		if l.Blocks[s] && s != l.Header {
			return false
		}
	}
	return true
}

// FindLoops detects natural loops from back edges (edges to a dominator).
// Loops sharing a header are merged.
func FindLoops(f *Func) []*Loop {
	dom := Dominators(f)
	byHeader := map[*Block]*Loop{}
	var order []*Block
	for _, b := range f.Blocks {
		for _, s := range b.Term.Succs() {
			if dom[b][s] { // back edge b -> s
				l := byHeader[s]
				if l == nil {
					l = &Loop{Header: s, Blocks: map[*Block]bool{s: true}}
					byHeader[s] = l
					order = append(order, s)
				}
				l.Latches = append(l.Latches, b)
				// Collect the loop body: reverse reachability from the
				// latch without passing through the header.
				stack := []*Block{b}
				for len(stack) > 0 {
					n := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if l.Blocks[n] {
						continue
					}
					l.Blocks[n] = true
					for _, p := range n.Preds {
						stack = append(stack, p)
					}
				}
			}
		}
	}
	out := make([]*Loop, 0, len(order))
	for _, h := range order {
		out = append(out, byHeader[h])
	}
	return out
}

// DefCounts returns, for each register, how many instructions define it
// (function arguments count as one definition each).
func DefCounts(f *Func) []int {
	counts := make([]int, f.NRegs)
	for i := 0; i < f.NArgs && i < f.NRegs; i++ {
		counts[i]++
	}
	for _, b := range f.Blocks {
		for _, in := range b.Code {
			if in.Defines() {
				counts[in.Dst]++
			}
		}
	}
	return counts
}

// Liveness computes per-block live-out register sets with the standard
// backward data-flow iteration. Terminator uses (branch conditions,
// return values) are included.
func Liveness(f *Func) map[*Block]map[Reg]bool {
	f.RecomputePreds()
	gen := map[*Block]map[Reg]bool{}  // upward-exposed uses
	kill := map[*Block]map[Reg]bool{} // definitions
	for _, b := range f.Blocks {
		g := map[Reg]bool{}
		k := map[Reg]bool{}
		for _, in := range b.Code {
			for _, u := range in.Uses() {
				if !k[u] {
					g[u] = true
				}
			}
			if in.Defines() {
				k[in.Dst] = true
			}
		}
		switch b.Term.Kind {
		case TermBranch:
			if !k[b.Term.Cond] {
				g[b.Term.Cond] = true
			}
		case TermReturn:
			if !k[b.Term.Ret] {
				g[b.Term.Ret] = true
			}
		}
		gen[b], kill[b] = g, k
	}

	liveOut := map[*Block]map[Reg]bool{}
	liveIn := map[*Block]map[Reg]bool{}
	for _, b := range f.Blocks {
		liveOut[b] = map[Reg]bool{}
		liveIn[b] = map[Reg]bool{}
	}
	changed := true
	for changed {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := map[Reg]bool{}
			for _, s := range b.Term.Succs() {
				for r := range liveIn[s] {
					out[r] = true
				}
			}
			in := map[Reg]bool{}
			for r := range gen[b] {
				in[r] = true
			}
			for r := range out {
				if !kill[b][r] {
					in[r] = true
				}
			}
			if len(out) != len(liveOut[b]) || len(in) != len(liveIn[b]) {
				liveOut[b], liveIn[b] = out, in
				changed = true
				continue
			}
			same := true
			for r := range out {
				if !liveOut[b][r] {
					same = false
					break
				}
			}
			if same {
				for r := range in {
					if !liveIn[b][r] {
						same = false
						break
					}
				}
			}
			if !same {
				liveOut[b], liveIn[b] = out, in
				changed = true
			}
		}
	}
	return liveOut
}
