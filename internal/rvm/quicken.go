package rvm

import "math"

// Quickening: translating a verified method's bytecode into tier-1 form —
// a token-threaded []qinstr dispatched over a function table, with
//
//   - superinstructions fusing the hottest multi-instruction patterns of
//     the dotty corpus (compare+branch loop headers, load+binop+store,
//     const+binop, array element access),
//   - inline-cache slots for invokevirtual/invokeinterface/invokehandle
//     and getfield/putfield, seeded from the tier-0 receiver histograms,
//   - lazily cached static-call and class resolution (first execution
//     resolves and traps exactly like tier-0; later executions hit the
//     cache), and
//   - bounds-check-eliminated (NB) forms of ALoad/AStore inside proven
//     canonical induction-loop regions, where the fused loop header
//     (qLenCmpBr) is itself the hoisted null+bounds check.
//
// Counters semantics are preserved exactly: a superinstruction bumps
// Executed once per fused original instruction, staged so that a trap
// observes the same count tier-0 would have produced (tier-0 counts an
// instruction before executing it), and IC hits still bump Method.
//
// Fusion never crosses a basic-block leader, so every jump target (and
// every tier-0 OSR entry point) maps to a quickened instruction.

type qop uint8

// Quickened opcodes. The first group mirrors the bytecode one-to-one;
// the second group holds the fused superinstructions.
const (
	qNop qop = iota
	qConstInt
	qConstFloat
	qConstNull
	qLoad
	qStore
	qPop
	qDup
	qArith // xop = OpAdd..OpRem
	qNeg
	qCmp // xop = OpCmpLT..OpCmpNE
	qJump
	qJumpIf
	qJumpIfNot
	qReturn
	qReturnVoid
	qNew
	qGetField
	qPutField
	qNewArray
	qALoad
	qALoadNB
	qAStore
	qAStoreNB
	qArrayLen
	qInvokeStatic
	qInvokeVirtual // also invokeinterface (identical reference semantics)
	qInvokeDynamic
	qInvokeHandle
	qMonitorEnter
	qMonitorExit
	qCAS
	qAtomicAdd
	qPark
	qWait
	qNotify
	qInstanceOf
	qCheckCast

	qLenCmpBr     // Load i; Load a; ArrayLen; CmpLT; JumpIfNot exit
	qLLCmpBr      // Load x; Load y; Cmp*; JumpIf[Not]
	qLCCmpBr      // Load x; ConstInt k; Cmp*; JumpIf[Not]
	qCmpBr        // Cmp*; JumpIf[Not]
	qLCArithStore // Load x; ConstInt k; arith; Store y
	qLLArithStore // Load x; Load y; Add|Sub|Mul; Store z
	qArithStore   // arith; Store x
	qCArith       // ConstInt k; arith
	qLLALoad      // Load a; Load i; ALoad
	qLLALoadNB    //   ... with hoisted null+bounds check
	qLLLAStore    // Load a; Load i; Load v; AStore
	qLLLAStoreNB  //   ... with hoisted null+bounds check
	qEnd          // synthetic: fell off the end (implicit void return)

	qopCount
)

var qopNames = [qopCount]string{
	"nop", "const.i", "const.f", "const.null", "load", "store", "pop", "dup",
	"arith", "neg", "cmp", "jump", "jumpif", "jumpifnot", "return", "return.void",
	"new", "getfield", "putfield", "newarray", "aload", "aload.nb", "astore", "astore.nb", "arraylen",
	"invokestatic", "invokevirtual", "invokedynamic", "invokehandle",
	"monitorenter", "monitorexit", "cas", "atomicadd", "park", "wait", "notify",
	"instanceof", "checkcast",
	"len.cmp.br", "ll.cmp.br", "lc.cmp.br", "cmp.br",
	"lc.arith.st", "ll.arith.st", "arith.st", "c.arith",
	"ll.aload", "ll.aload.nb", "lll.astore", "lll.astore.nb", "end",
}

func (op qop) String() string {
	if int(op) < len(qopNames) {
		return qopNames[op]
	}
	return "qop?"
}

// icWidth is the polymorphic inline-cache capacity; beyond it a site goes
// megamorphic and falls back to ResolveMethod per call.
const icWidth = 4

// siteIC is the mutable per-site cache of one quickened method instance
// (per interpreter — never shared, so no synchronization is needed).
// Invoke sites use classes/targets; field sites use fcls/fidx; handle
// sites use targets[0] only.
type siteIC struct {
	pc   int
	kind Opcode
	sym  string

	classes [icWidth]*Class
	targets [icWidth]*Method
	// states caches the per-interpreter tiering state of each target,
	// filled lazily, so an IC hit can dispatch straight into quickened
	// code without the per-call method-state lookup.
	states [icWidth]*mstate
	n      int

	fcls *Class
	fidx int

	hits, misses               int64
	flushedHits, flushedMisses int64
}

// qinstr is one quickened instruction, 40 bytes. a/b/c are local slots
// or, for branches, c is the quickened jump target. charge is the block
// fuel charge carried by block-leader instructions. i is an integer
// constant or a float constant's bits. Only instructions with a symbolic
// operand (calls, field and class references) have a sym.
type qinstr struct {
	op     qop
	xop    Opcode // original arith/cmp opcode for generic variants
	neg    bool   // branch sense: true = JumpIfNot
	a, b   int32
	c      int32
	charge int32
	i      int64
	sym    *qsym
}

// qsym is the symbolic operand of one quickened instruction and what it
// resolves to, cached at its first execution.
type qsym struct {
	s      string
	ic     *siteIC // invoke, field and handle sites
	tgt    *Method // lazily cached static/dynamic resolution
	tstate *mstate // the static target's tiering state, cached with tgt
	cls    *Class  // lazily cached class resolution (OpNew)
}

// qcode is a method's quickened form.
type qcode struct {
	m         *Method
	code      []qinstr
	entry     []int32 // bytecode pc -> quickened index at block leaders (OSR), else -1
	sites     []*siteIC
	nlocals   int
	frameSize int
}

// quicken tries to tier the method up, marking it noQuick on failure so
// the attempt is made only once.
func (vm *Interp) quicken(st *mstate) {
	if st.q != nil || st.noQuick {
		return
	}
	if q, ok := buildQuick(st); ok {
		st.q = q
	} else {
		st.noQuick = true
	}
}

// nbPair names the (array, index) local slots an ALoad/AStore must be
// operating on for its hoisted-check (NB) form to be sound.
type nbPair struct{ arr, idx int }

// findBCE locates canonical induction-loop regions
//
//	h:   Load idx; Load arr; ArrayLen; CmpLT; JumpIfNot exit
//	       ...body (no stores to idx or arr)...
//	     Load idx; ConstInt k>0; Add; Store idx
//	le:  Jump h
//
// and returns the body ALoad/AStore pcs whose checks the header subsumes,
// keyed to the (arr, idx) slots that must be on the operand stack. The
// required facts — idx enters non-negative, only the latch increments it,
// arr is never reassigned, and the region is entered only through the
// header — are all re-derived from the bytecode; compiler LoopInfo
// metadata is only consulted for the idx-non-negative entry fact when the
// init sequence is not immediately before the header.
func findBCE(m *Method) map[int]nbPair {
	var out map[int]nbPair // nil until a region has candidates
	for pc, in := range m.Code {
		if in.Op == OpJump && in.A >= 0 && in.A < pc {
			out = bceRegion(m, in.A, pc, out)
		}
	}
	return out
}

// bceRegion adds the candidates of the region headed at h and closed by
// the backward jump at latchEnd to out, and returns out.
func bceRegion(m *Method, h, latchEnd int, out map[int]nbPair) map[int]nbPair {
	code := m.Code
	// Header shape.
	if h+4 >= latchEnd {
		return out
	}
	if code[h].Op != OpLoad || code[h+1].Op != OpLoad || code[h+2].Op != OpArrayLen ||
		code[h+3].Op != OpCmpLT || code[h+4].Op != OpJumpIfNot {
		return out
	}
	idx, arr := code[h].A, code[h+1].A
	if idx == arr {
		return out
	}
	exit := code[h+4].A
	if exit >= h && exit <= latchEnd {
		return out // loop must exit the region
	}
	// Canonical latch: Load idx; ConstInt k>0; Add; Store idx; (Jump h).
	if latchEnd-4 <= h+4 {
		return out
	}
	if code[latchEnd-4].Op != OpLoad || code[latchEnd-4].A != idx ||
		code[latchEnd-3].Op != OpConstInt || code[latchEnd-3].I <= 0 ||
		code[latchEnd-2].Op != OpAdd ||
		code[latchEnd-1].Op != OpStore || code[latchEnd-1].A != idx {
		return out
	}
	// Store discipline: idx written only by the latch, arr never.
	for j := h; j <= latchEnd; j++ {
		if code[j].Op == OpStore && (code[j].A == arr || (code[j].A == idx && j != latchEnd-1)) {
			return out
		}
	}
	// Entry discipline: the interior is reachable only from within the
	// region; the header only via its fall-through entry or in-region
	// branches (so the non-negative-idx entry proof covers every path).
	for j, in := range code {
		switch in.Op {
		case OpJump, OpJumpIf, OpJumpIfNot:
		default:
			continue
		}
		t := in.A
		inside := j >= h && j <= latchEnd
		if !inside && t >= h && t <= latchEnd {
			return out
		}
		if !inside && t == h-1 {
			// Would bypass the init sequence checked below.
			return out
		}
	}
	// idx >= 0 on entry: the immediately preceding init is a
	// non-negative constant store, or compiler metadata asserts it.
	nonNeg := h >= 2 &&
		code[h-2].Op == OpConstInt && code[h-2].I >= 0 &&
		code[h-1].Op == OpStore && code[h-1].A == idx
	if !nonNeg {
		for _, l := range m.Loops {
			if l.Head == h && l.IdxSlot == idx && l.ArrSlot == arr && l.InitNonNeg {
				nonNeg = true
				break
			}
		}
	}
	if !nonNeg {
		return out
	}
	// Body accesses between header and latch are candidates; the
	// quickener's symbolic stack still has to confirm the operands are
	// live copies of (arr, idx) before emitting an NB form.
	for j := h + 5; j < latchEnd-4; j++ {
		if code[j].Op == OpALoad || code[j].Op == OpAStore {
			if out == nil {
				out = make(map[int]nbPair)
			}
			out[j] = nbPair{arr: arr, idx: idx}
		}
	}
	return out
}

// buildQuick translates a verified method. It fails (false) only on
// shapes the translator does not model, which then stay on tier-0.
func buildQuick(st *mstate) (*qcode, bool) {
	m := st.m
	code := m.Code
	n := len(code)
	charges, depths := st.charges, st.depths

	// Count the quickened instructions and symbolic operands first, so
	// that each table is allocated once at its final size.
	nq, nsym := 1, 0 // 1 for qEnd
	for pc := 0; pc < n; {
		if depths[pc] < 0 {
			pc++
			continue
		}
		_, consumed := fusion(code, charges, pc)
		if consumed == 1 && symbolic(code[pc].Op) {
			nsym++
		}
		nq++
		pc += consumed
	}
	q := &qcode{
		m:         m,
		code:      make([]qinstr, 0, nq),
		entry:     make([]int32, n),
		nlocals:   m.NLocals,
		frameSize: m.NLocals + st.maxStack,
	}
	syms := make([]qsym, nsym)
	site := func(s string) *qsym {
		x := &syms[0]
		syms = syms[1:]
		x.s = s
		return x
	}
	newIC := func(pc int, kind Opcode, sym string) *siteIC {
		ic := &siteIC{pc: pc, kind: kind, sym: sym}
		q.sites = append(q.sites, ic)
		return ic
	}
	// target is a branch's bytecode target until the fixup pass below
	// maps it to a quickened index; -1 marks the implicit void return.
	target := func(t int) int32 {
		if t < 0 || t >= n {
			return -1
		}
		return int32(t)
	}
	nb := findBCE(m)

	// Symbolic operand stack: for each slot, the local it is a verbatim
	// copy of (-1 = unknown). Reset at leaders, invalidated on stores.
	stk := make([]int, 0, st.maxStack+1)
	stkAt := func(k int) int { // k=1 is top-of-stack
		if len(stk) < k {
			return -1
		}
		return stk[len(stk)-k]
	}

	for i := range q.entry {
		q.entry[i] = -1
	}
	for pc := 0; pc < n; {
		if depths[pc] < 0 {
			pc++ // statically unreachable: never entered, never targeted
			continue
		}
		if charges[pc] != 0 {
			stk = stk[:0]
			for i := int32(0); i < depths[pc]; i++ {
				stk = append(stk, -1)
			}
			q.entry[pc] = int32(len(q.code))
		}
		in := code[pc]
		var qi qinstr
		op, consumed := fusion(code, charges, pc)
		if consumed > 1 {
			qi = qinstr{op: op, a: int32(in.A)}
			switch op {
			case qLenCmpBr:
				qi.b, qi.c = int32(code[pc+1].A), target(code[pc+4].A)
			case qLLCmpBr, qLCCmpBr:
				i1, i2, i3 := code[pc+1], code[pc+2], code[pc+3]
				qi.b, qi.i, qi.xop, qi.neg, qi.c = int32(i1.A), i1.I, i2.Op, i3.Op == OpJumpIfNot, target(i3.A)
			case qLCArithStore:
				qi.b, qi.i, qi.xop = int32(code[pc+3].A), code[pc+1].I, code[pc+2].Op
			case qLLArithStore:
				qi.b, qi.c, qi.xop = int32(code[pc+1].A), int32(code[pc+3].A), code[pc+2].Op
			case qLLLAStore:
				qi.b, qi.c = int32(code[pc+1].A), int32(code[pc+2].A)
				if p, ok := nb[pc+3]; ok && p.arr == in.A && p.idx == code[pc+1].A {
					qi.op = qLLLAStoreNB
				}
			case qLLALoad:
				qi.b = int32(code[pc+1].A)
				if p, ok := nb[pc+2]; ok && p.arr == in.A && p.idx == code[pc+1].A {
					qi.op = qLLALoadNB
				}
			case qCArith:
				qi = qinstr{op: qCArith, i: in.I, xop: code[pc+1].Op}
			case qArithStore:
				qi = qinstr{op: qArithStore, a: int32(code[pc+1].A), xop: in.Op}
			case qCmpBr:
				i1 := code[pc+1]
				qi = qinstr{op: qCmpBr, xop: in.Op, neg: i1.Op == OpJumpIfNot, c: target(i1.A)}
			}
		} else {
			switch in.Op {
			case OpNop:
				qi.op = qNop
			case OpConstInt:
				qi = qinstr{op: qConstInt, i: in.I}
			case OpConstFloat:
				qi = qinstr{op: qConstFloat, i: int64(math.Float64bits(in.F))}
			case OpConstNull:
				qi.op = qConstNull
			case OpLoad:
				qi = qinstr{op: qLoad, a: int32(in.A)}
			case OpStore:
				qi = qinstr{op: qStore, a: int32(in.A)}
			case OpPop:
				qi.op = qPop
			case OpDup:
				qi.op = qDup
			case OpAdd, OpSub, OpMul, OpDiv, OpRem:
				qi = qinstr{op: qArith, xop: in.Op}
			case OpNeg:
				qi.op = qNeg
			case OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE, OpCmpEQ, OpCmpNE:
				qi = qinstr{op: qCmp, xop: in.Op}
			case OpJump:
				qi = qinstr{op: qJump, c: target(in.A)}
			case OpJumpIf:
				qi = qinstr{op: qJumpIf, c: target(in.A)}
			case OpJumpIfNot:
				qi = qinstr{op: qJumpIfNot, c: target(in.A)}
			case OpReturn:
				qi.op = qReturn
			case OpReturnVoid:
				qi.op = qReturnVoid
			case OpNew:
				qi = qinstr{op: qNew, sym: site(in.S)}
			case OpGetField:
				qi = qinstr{op: qGetField, sym: site(in.S)}
				qi.sym.ic = newIC(pc, in.Op, in.S)
			case OpPutField:
				qi = qinstr{op: qPutField, sym: site(in.S)}
				qi.sym.ic = newIC(pc, in.Op, in.S)
			case OpNewArray:
				qi.op = qNewArray
			case OpALoad:
				qi.op = qALoad
				if p, ok := nb[pc]; ok && stkAt(2) == p.arr && stkAt(1) == p.idx {
					qi.op = qALoadNB
				}
			case OpAStore:
				qi.op = qAStore
				if p, ok := nb[pc]; ok && stkAt(3) == p.arr && stkAt(2) == p.idx {
					qi.op = qAStoreNB
				}
			case OpArrayLen:
				qi.op = qArrayLen
			case OpInvokeStatic:
				qi = qinstr{op: qInvokeStatic, a: int32(in.A), sym: site(in.S)}
			case OpInvokeVirtual, OpInvokeInterface:
				qi = qinstr{op: qInvokeVirtual, a: int32(in.A), sym: site(in.S)}
				qi.sym.ic = newIC(pc, in.Op, in.S)
				seedIC(qi.sym.ic, st.sites[pc], in.S)
			case OpInvokeDynamic:
				qi = qinstr{op: qInvokeDynamic, sym: site(in.S)}
			case OpInvokeHandle:
				qi = qinstr{op: qInvokeHandle, a: int32(in.A), sym: site(in.S)}
				qi.sym.ic = newIC(pc, in.Op, in.S)
			case OpMonitorEnter:
				qi.op = qMonitorEnter
			case OpMonitorExit:
				qi.op = qMonitorExit
			case OpCAS:
				qi = qinstr{op: qCAS, sym: site(in.S)}
			case OpAtomicAdd:
				qi = qinstr{op: qAtomicAdd, sym: site(in.S)}
			case OpPark:
				qi.op = qPark
			case OpWait:
				qi.op = qWait
			case OpNotify:
				qi.op = qNotify
			case OpInstanceOf:
				qi = qinstr{op: qInstanceOf, sym: site(in.S)}
			case OpCheckCast:
				qi = qinstr{op: qCheckCast, sym: site(in.S)}
			default:
				return nil, false
			}
		}
		qi.charge = charges[pc]
		q.code = append(q.code, qi)
		// Replay the consumed instructions over the symbolic stack.
		for k := 0; k < consumed; k++ {
			rin := code[pc+k]
			switch rin.Op {
			case OpLoad:
				stk = append(stk, rin.A)
			case OpDup:
				stk = append(stk, stkAt(1))
			case OpStore:
				stk = stk[:len(stk)-1]
				for i := range stk {
					if stk[i] == rin.A {
						stk[i] = -1
					}
				}
			default:
				pops, pushes, _ := stackEffect(rin)
				stk = stk[:len(stk)-pops]
				for i := 0; i < pushes; i++ {
					stk = append(stk, -1)
				}
			}
		}
		pc += consumed
	}

	// Synthetic terminator: fall-off-the-end and every out-of-range jump
	// target resolve here (the seed's implicit void return).
	end := int32(len(q.code))
	q.code = append(q.code, qinstr{op: qEnd})
	for i := range q.code {
		qi := &q.code[i]
		switch qi.op {
		case qJump, qJumpIf, qJumpIfNot, qLenCmpBr, qLLCmpBr, qLCCmpBr, qCmpBr:
		default:
			continue
		}
		if qi.c < 0 {
			qi.c = end
		} else if qi.c = q.entry[qi.c]; qi.c < 0 {
			return nil, false // fusion crossed a leader: translator bug
		}
	}
	return q, true
}

// fusion reports the superinstruction that starts at pc and how many
// bytecode instructions it replaces; consumed is 1 when none applies. A
// fusion never spans a block leader, so every branch target and every
// tier-0 OSR entry point stays addressable. The NB variants are chosen by
// the caller.
func fusion(code []Instr, charges []int32, pc int) (op qop, consumed int) {
	// fits reports whether a fusion of length l stays inside this basic
	// block (no interior leaders) and inside the method.
	fits := func(l int) bool {
		if pc+l > len(code) {
			return false
		}
		for k := 1; k < l; k++ {
			if charges[pc+k] != 0 {
				return false
			}
		}
		return true
	}
	in := code[pc]
	if fits(5) && in.Op == OpLoad && code[pc+1].Op == OpLoad && code[pc+2].Op == OpArrayLen &&
		code[pc+3].Op == OpCmpLT && code[pc+4].Op == OpJumpIfNot {
		return qLenCmpBr, 5
	}
	if fits(4) {
		i1, i2, i3 := code[pc+1], code[pc+2], code[pc+3]
		if isBranch(i3.Op) && in.Op == OpLoad && isCmp(i2.Op) {
			switch i1.Op {
			case OpLoad:
				return qLLCmpBr, 4
			case OpConstInt:
				return qLCCmpBr, 4
			}
		}
		if in.Op == OpLoad && i1.Op == OpConstInt && isArith(i2.Op) && i3.Op == OpStore &&
			(isMulFree(i2.Op) || i1.I != 0) {
			return qLCArithStore, 4
		}
		if in.Op == OpLoad && i1.Op == OpLoad && isMulFree(i2.Op) && i3.Op == OpStore {
			return qLLArithStore, 4
		}
		if in.Op == OpLoad && i1.Op == OpLoad && i2.Op == OpLoad && i3.Op == OpAStore {
			return qLLLAStore, 4
		}
	}
	if fits(3) && in.Op == OpLoad && code[pc+1].Op == OpLoad && code[pc+2].Op == OpALoad {
		return qLLALoad, 3
	}
	if fits(2) {
		i1 := code[pc+1]
		switch {
		case in.Op == OpConstInt && isArith(i1.Op) && (isMulFree(i1.Op) || in.I != 0):
			return qCArith, 2
		case isArith(in.Op) && i1.Op == OpStore:
			return qArithStore, 2
		case isCmp(in.Op) && isBranch(i1.Op):
			return qCmpBr, 2
		}
	}
	return qNop, 1
}

func isCmp(op Opcode) bool     { return op >= OpCmpLT && op <= OpCmpNE }
func isArith(op Opcode) bool   { return op >= OpAdd && op <= OpRem }
func isMulFree(op Opcode) bool { return op == OpAdd || op == OpSub || op == OpMul } // trap-free arithmetic
func isBranch(op Opcode) bool  { return op == OpJumpIf || op == OpJumpIfNot }

// symbolic reports whether the opcode has a symbolic operand, or an
// inline cache, and so a qsym when quickened.
func symbolic(op Opcode) bool {
	switch op {
	case OpNew, OpGetField, OpPutField, OpInvokeStatic, OpInvokeVirtual, OpInvokeInterface,
		OpInvokeDynamic, OpInvokeHandle, OpCAS, OpAtomicAdd, OpInstanceOf, OpCheckCast:
		return true
	}
	return false
}

// seedIC pre-populates a virtual-call inline cache from the tier-0
// receiver-class histogram, most-frequent class first.
func seedIC(ic *siteIC, rp *recvProf, sym string) {
	if rp == nil {
		return
	}
	type cand struct {
		c     *Class
		count int64
	}
	var cands []cand
	for i := 0; i < icWidth && rp.classes[i] != nil; i++ {
		cands = append(cands, cand{rp.classes[i], rp.counts[i]})
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].count > cands[j-1].count; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for _, cd := range cands {
		if t, ok := cd.c.ResolveMethod(sym); ok && ic.n < icWidth {
			ic.classes[ic.n] = cd.c
			ic.targets[ic.n] = t
			ic.n++
		}
	}
}
