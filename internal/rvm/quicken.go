package rvm

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

// qinstr is one quickened instruction. a/b/c are local slots or, for
// branches, c is the quickened jump target. charge is the block fuel
// charge carried by block-leader instructions.
type qinstr struct {
	op     qop
	xop    Opcode // original arith/cmp opcode for generic variants
	neg    bool   // branch sense: true = JumpIfNot
	a, b   int32
	c      int32
	charge int32
	i      int64
	f      float64
	s      string
	ic     *siteIC
	tgt    *Method // lazily cached static/dynamic resolution
	tstate *mstate // the static target's tiering state, cached with tgt
	cls    *Class  // lazily cached class resolution (OpNew)
}

// qcode is a method's quickened form.
type qcode struct {
	m         *Method
	code      []qinstr
	entry     map[int]int // original leader pc -> quickened index (OSR)
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
	code := m.Code
	out := map[int]nbPair{}
	for pc, in := range code {
		if in.Op == OpJump && in.A >= 0 && in.A < pc {
			bceRegion(m, in.A, pc, out)
		}
	}
	return out
}

func bceRegion(m *Method, h, latchEnd int, out map[int]nbPair) {
	code := m.Code
	// Header shape.
	if h+4 >= latchEnd {
		return
	}
	if code[h].Op != OpLoad || code[h+1].Op != OpLoad || code[h+2].Op != OpArrayLen ||
		code[h+3].Op != OpCmpLT || code[h+4].Op != OpJumpIfNot {
		return
	}
	idx, arr := code[h].A, code[h+1].A
	if idx == arr {
		return
	}
	exit := code[h+4].A
	if exit >= h && exit <= latchEnd {
		return // loop must exit the region
	}
	// Canonical latch: Load idx; ConstInt k>0; Add; Store idx; (Jump h).
	if latchEnd-4 <= h+4 {
		return
	}
	if code[latchEnd-4].Op != OpLoad || code[latchEnd-4].A != idx ||
		code[latchEnd-3].Op != OpConstInt || code[latchEnd-3].I <= 0 ||
		code[latchEnd-2].Op != OpAdd ||
		code[latchEnd-1].Op != OpStore || code[latchEnd-1].A != idx {
		return
	}
	// Store discipline: idx written only by the latch, arr never.
	for j := h; j <= latchEnd; j++ {
		if code[j].Op == OpStore && (code[j].A == arr || (code[j].A == idx && j != latchEnd-1)) {
			return
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
			return
		}
		if !inside && t == h-1 {
			// Would bypass the init sequence checked below.
			return
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
		return
	}
	// Body accesses between header and latch are candidates; the
	// quickener's symbolic stack still has to confirm the operands are
	// live copies of (arr, idx) before emitting an NB form.
	for j := h + 5; j < latchEnd-4; j++ {
		if code[j].Op == OpALoad || code[j].Op == OpAStore {
			out[j] = nbPair{arr: arr, idx: idx}
		}
	}
}

// buildQuick translates a verified method. It fails (false) only on
// shapes the translator does not model, which then stay on tier-0.
func buildQuick(st *mstate) (*qcode, bool) {
	m := st.m
	code := m.Code
	n := len(code)
	q := &qcode{
		m:         m,
		code:      make([]qinstr, 0, n+1), // fusion only shrinks; +1 for qEnd
		entry:     make(map[int]int),
		nlocals:   m.NLocals,
		frameSize: m.NLocals + st.maxStack,
	}
	charges, depths := st.charges, st.depths
	nb := findBCE(m)

	// Symbolic operand stack: for each slot, the local it is a verbatim
	// copy of (-1 = unknown). Reset at leaders, invalidated on stores.
	sym := make([]int, 0, st.maxStack+1)
	resetSym := func(d int) {
		sym = sym[:0]
		for i := 0; i < d; i++ {
			sym = append(sym, -1)
		}
	}
	symAt := func(k int) int { // k=1 is top-of-stack
		if len(sym) < k {
			return -1
		}
		return sym[len(sym)-k]
	}

	type fixup struct{ qi, target int }
	var fixes []fixup
	emit := func(in qinstr) int {
		q.code = append(q.code, in)
		return len(q.code) - 1
	}
	branch := func(in qinstr, target int) {
		fixes = append(fixes, fixup{emit(in), target})
	}
	newIC := func(pc int, kind Opcode, sym string) *siteIC {
		ic := &siteIC{pc: pc, kind: kind, sym: sym}
		q.sites = append(q.sites, ic)
		return ic
	}
	isCmp := func(op Opcode) bool { return op >= OpCmpLT && op <= OpCmpNE }
	isArith := func(op Opcode) bool { return op >= OpAdd && op <= OpRem }
	isMulFree := func(op Opcode) bool { return op == OpAdd || op == OpSub || op == OpMul } // trap-free arithmetic
	branchSense := func(op Opcode) (isBr, neg bool) {
		switch op {
		case OpJumpIf:
			return true, false
		case OpJumpIfNot:
			return true, true
		}
		return false, false
	}

	pc := 0
	for pc < n {
		if depths[pc] < 0 {
			pc++ // statically unreachable: never entered, never targeted
			continue
		}
		if charges[pc] != 0 {
			resetSym(depths[pc])
			q.entry[pc] = len(q.code)
		}
		// fits reports whether a fusion of length l stays inside this
		// basic block (no interior leaders) and inside the method.
		fits := func(l int) bool {
			if pc+l > n {
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
		emitAt := len(q.code)
		consumed := 1
		fused := false

		if fits(5) && in.Op == OpLoad && code[pc+1].Op == OpLoad && code[pc+2].Op == OpArrayLen &&
			code[pc+3].Op == OpCmpLT && code[pc+4].Op == OpJumpIfNot {
			branch(qinstr{op: qLenCmpBr, a: int32(in.A), b: int32(code[pc+1].A)}, code[pc+4].A)
			consumed, fused = 5, true
		}
		if !fused && fits(4) {
			i1, i2, i3 := code[pc+1], code[pc+2], code[pc+3]
			if isBr, neg := branchSense(i3.Op); isBr && in.Op == OpLoad && isCmp(i2.Op) {
				switch i1.Op {
				case OpLoad:
					branch(qinstr{op: qLLCmpBr, a: int32(in.A), b: int32(i1.A), xop: i2.Op, neg: neg}, i3.A)
					consumed, fused = 4, true
				case OpConstInt:
					branch(qinstr{op: qLCCmpBr, a: int32(in.A), i: i1.I, xop: i2.Op, neg: neg}, i3.A)
					consumed, fused = 4, true
				}
			}
			if !fused && in.Op == OpLoad && i1.Op == OpConstInt && isArith(i2.Op) && i3.Op == OpStore &&
				(isMulFree(i2.Op) || i1.I != 0) {
				emit(qinstr{op: qLCArithStore, a: int32(in.A), b: int32(i3.A), i: i1.I, xop: i2.Op})
				consumed, fused = 4, true
			}
			if !fused && in.Op == OpLoad && i1.Op == OpLoad && isMulFree(i2.Op) && i3.Op == OpStore {
				emit(qinstr{op: qLLArithStore, a: int32(in.A), b: int32(i1.A), c: int32(i3.A), xop: i2.Op})
				consumed, fused = 4, true
			}
			if !fused && in.Op == OpLoad && i1.Op == OpLoad && i2.Op == OpLoad && i3.Op == OpAStore {
				op := qLLLAStore
				if p, ok := nb[pc+3]; ok && p.arr == in.A && p.idx == i1.A {
					op = qLLLAStoreNB
				}
				emit(qinstr{op: op, a: int32(in.A), b: int32(i1.A), c: int32(i2.A)})
				consumed, fused = 4, true
			}
		}
		if !fused && fits(3) && in.Op == OpLoad && code[pc+1].Op == OpLoad && code[pc+2].Op == OpALoad {
			op := qLLALoad
			if p, ok := nb[pc+2]; ok && p.arr == in.A && p.idx == code[pc+1].A {
				op = qLLALoadNB
			}
			emit(qinstr{op: op, a: int32(in.A), b: int32(code[pc+1].A)})
			consumed, fused = 3, true
		}
		if !fused && fits(2) {
			i1 := code[pc+1]
			switch {
			case in.Op == OpConstInt && isArith(i1.Op) && (isMulFree(i1.Op) || in.I != 0):
				emit(qinstr{op: qCArith, i: in.I, xop: i1.Op})
				consumed, fused = 2, true
			case isArith(in.Op) && i1.Op == OpStore:
				emit(qinstr{op: qArithStore, a: int32(i1.A), xop: in.Op})
				consumed, fused = 2, true
			case isCmp(in.Op):
				if isBr, neg := branchSense(i1.Op); isBr {
					branch(qinstr{op: qCmpBr, xop: in.Op, neg: neg}, i1.A)
					consumed, fused = 2, true
				}
			}
		}
		if !fused {
			switch in.Op {
			case OpNop:
				emit(qinstr{op: qNop})
			case OpConstInt:
				emit(qinstr{op: qConstInt, i: in.I})
			case OpConstFloat:
				emit(qinstr{op: qConstFloat, f: in.F})
			case OpConstNull:
				emit(qinstr{op: qConstNull})
			case OpLoad:
				emit(qinstr{op: qLoad, a: int32(in.A)})
			case OpStore:
				emit(qinstr{op: qStore, a: int32(in.A)})
			case OpPop:
				emit(qinstr{op: qPop})
			case OpDup:
				emit(qinstr{op: qDup})
			case OpAdd, OpSub, OpMul, OpDiv, OpRem:
				emit(qinstr{op: qArith, xop: in.Op})
			case OpNeg:
				emit(qinstr{op: qNeg})
			case OpCmpLT, OpCmpLE, OpCmpGT, OpCmpGE, OpCmpEQ, OpCmpNE:
				emit(qinstr{op: qCmp, xop: in.Op})
			case OpJump:
				branch(qinstr{op: qJump}, in.A)
			case OpJumpIf:
				branch(qinstr{op: qJumpIf}, in.A)
			case OpJumpIfNot:
				branch(qinstr{op: qJumpIfNot}, in.A)
			case OpReturn:
				emit(qinstr{op: qReturn})
			case OpReturnVoid:
				emit(qinstr{op: qReturnVoid})
			case OpNew:
				emit(qinstr{op: qNew, s: in.S})
			case OpGetField:
				emit(qinstr{op: qGetField, s: in.S, ic: newIC(pc, in.Op, in.S)})
			case OpPutField:
				emit(qinstr{op: qPutField, s: in.S, ic: newIC(pc, in.Op, in.S)})
			case OpNewArray:
				emit(qinstr{op: qNewArray})
			case OpALoad:
				op := qALoad
				if p, ok := nb[pc]; ok && symAt(2) == p.arr && symAt(1) == p.idx {
					op = qALoadNB
				}
				emit(qinstr{op: op})
			case OpAStore:
				op := qAStore
				if p, ok := nb[pc]; ok && symAt(3) == p.arr && symAt(2) == p.idx {
					op = qAStoreNB
				}
				emit(qinstr{op: op})
			case OpArrayLen:
				emit(qinstr{op: qArrayLen})
			case OpInvokeStatic:
				emit(qinstr{op: qInvokeStatic, s: in.S, a: int32(in.A)})
			case OpInvokeVirtual, OpInvokeInterface:
				ic := newIC(pc, in.Op, in.S)
				seedIC(ic, st.sites[pc], in.S)
				emit(qinstr{op: qInvokeVirtual, s: in.S, a: int32(in.A), ic: ic})
			case OpInvokeDynamic:
				emit(qinstr{op: qInvokeDynamic, s: in.S})
			case OpInvokeHandle:
				emit(qinstr{op: qInvokeHandle, a: int32(in.A), ic: newIC(pc, in.Op, in.S)})
			case OpMonitorEnter:
				emit(qinstr{op: qMonitorEnter})
			case OpMonitorExit:
				emit(qinstr{op: qMonitorExit})
			case OpCAS:
				emit(qinstr{op: qCAS, s: in.S})
			case OpAtomicAdd:
				emit(qinstr{op: qAtomicAdd, s: in.S})
			case OpPark:
				emit(qinstr{op: qPark})
			case OpWait:
				emit(qinstr{op: qWait})
			case OpNotify:
				emit(qinstr{op: qNotify})
			case OpInstanceOf:
				emit(qinstr{op: qInstanceOf, s: in.S})
			case OpCheckCast:
				emit(qinstr{op: qCheckCast, s: in.S})
			default:
				return nil, false
			}
		}
		if charges[pc] != 0 {
			q.code[emitAt].charge = charges[pc]
		}
		// Replay the consumed instructions over the symbolic stack.
		for k := 0; k < consumed; k++ {
			rin := code[pc+k]
			switch rin.Op {
			case OpLoad:
				sym = append(sym, rin.A)
			case OpDup:
				sym = append(sym, symAt(1))
			case OpStore:
				sym = sym[:len(sym)-1]
				for i := range sym {
					if sym[i] == rin.A {
						sym[i] = -1
					}
				}
			default:
				pops, pushes, _ := stackEffect(rin)
				sym = sym[:len(sym)-pops]
				for i := 0; i < pushes; i++ {
					sym = append(sym, -1)
				}
			}
		}
		pc += consumed
	}

	// Synthetic terminator: fall-off-the-end and every out-of-range jump
	// target resolve here (the seed's implicit void return).
	endIdx := len(q.code)
	q.code = append(q.code, qinstr{op: qEnd})
	for _, fx := range fixes {
		target := endIdx
		if fx.target >= 0 && fx.target < n {
			e, ok := q.entry[fx.target]
			if !ok {
				return nil, false // fusion crossed a leader: translator bug
			}
			target = e
		}
		q.code[fx.qi].c = int32(target)
	}
	return q, true
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
