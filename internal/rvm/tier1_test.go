package rvm

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// runTier executes a program on a fresh interpreter pinned to one tier.
func runTier(p *Program, tier TierPolicy, fuel int64, args ...Value) (Value, error, Counters) {
	vm := NewInterp(p)
	vm.Tier = tier
	vm.Fuel = fuel
	v, err := vm.Run(args...)
	return v, err, vm.Counters
}

// diffTiers asserts tier-0 (baseline) and tier-1 (forced quickening)
// agree on result, trap, and every counter. Tier-0 is the reference; the
// IR executor is the independent third engine (rvm/ir FuzzVerify).
func diffTiers(t *testing.T, name string, p *Program, args ...Value) {
	t.Helper()
	v0, e0, c0 := runTier(p, TierBaseline, 0, args...)
	v1, e1, c1 := runTier(p, TierQuick, 0, args...)
	if (e0 == nil) != (e1 == nil) {
		t.Fatalf("%s: tier0 err=%v tier1 err=%v", name, e0, e1)
	}
	if e0 != nil && e0.Error() != e1.Error() {
		t.Errorf("%s: trap diverged:\n tier0: %v\n tier1: %v", name, e0, e1)
	}
	if e0 == nil && !v0.Equal(v1) {
		t.Errorf("%s: result diverged: tier0=%v tier1=%v", name, v0, v1)
	}
	if c0 != c1 {
		t.Errorf("%s: counters diverged:\n tier0: %+v\n tier1: %+v", name, c0, c1)
	}
}

func buildProg(t *testing.T, entry *Method, extra ...*Method) *Program {
	t.Helper()
	return buildProgram(t, entry, extra...)
}

// sumArrMethod is the canonical counted array loop the quickener turns
// into bounds-check-eliminated superinstructions.
func sumArrMethod() *Method {
	a := NewAsm()
	// slot 0 = arr (arg), 1 = sum, 2 = i
	a.ConstInt(0).Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(OpArrayLen).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(1).Load(0).Load(2).Op(OpALoad).Op(OpAdd).Store(1)
	a.Load(2).ConstInt(1).Op(OpAdd).Store(2)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(OpReturn)
	return a.MustBuild("sumarr", 1)
}

// fillArrMethod writes i*3 into every slot of its array argument.
func fillArrMethod() *Method {
	a := NewAsm()
	a.ConstInt(0).Store(1)
	a.Label("head")
	a.Load(1).Load(0).Op(OpArrayLen).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(0).Load(1).Load(1).ConstInt(3).Op(OpMul).Op(OpAStore)
	a.Load(1).ConstInt(1).Op(OpAdd).Store(1)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(0).Op(OpReturn)
	return a.MustBuild("fillarr", 1)
}

func TestTierDifferentialBasics(t *testing.T) {
	mk := func(build func(a *Asm)) *Program {
		a := NewAsm()
		build(a)
		return buildProg(t, a.MustBuild("main", 1))
	}

	cases := []struct {
		name string
		p    *Program
		args []Value
	}{
		{"arith", mk(func(a *Asm) {
			a.ConstInt(3).ConstInt(4).Op(OpAdd).ConstInt(5).Op(OpMul)
			a.ConstInt(6).ConstInt(2).Op(OpDiv).Op(OpSub).Op(OpReturn)
		}), []Value{Int(0)}},
		{"float-promote", mk(func(a *Asm) {
			a.ConstInt(3).ConstFloat(0.5).Op(OpMul).Load(0).Op(OpAdd).Op(OpReturn)
		}), []Value{Int(1)}},
		{"div-zero-trap", mk(func(a *Asm) {
			a.ConstInt(1).Load(0).Op(OpDiv).Op(OpReturn)
		}), []Value{Int(0)}},
		{"rem-zero-trap", mk(func(a *Asm) {
			a.ConstInt(7).Load(0).Op(OpRem).Op(OpReturn)
		}), []Value{Int(0)}},
		{"loop-sum", mk(func(a *Asm) {
			a.ConstInt(0).Store(1)
			a.ConstInt(0).Store(2)
			a.Label("head")
			a.Load(2).Load(0).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
			a.Load(1).Load(2).Op(OpAdd).Store(1)
			a.Load(2).ConstInt(1).Op(OpAdd).Store(2)
			a.Jump(OpJump, "head")
			a.Label("exit")
			a.Load(1).Op(OpReturn)
		}), []Value{Int(1000)}},
		{"neg-dup-pop", mk(func(a *Asm) {
			a.Load(0).Op(OpNeg).Op(OpDup).Op(OpAdd).ConstInt(9).Op(OpPop).Op(OpReturn)
		}), []Value{Int(21)}},
		{"fall-off-end", mk(func(a *Asm) {
			a.ConstInt(1).Store(1)
		}), []Value{Int(0)}},
	}
	for _, tc := range cases {
		diffTiers(t, tc.name, tc.p, tc.args...)
	}
}

func TestTierDifferentialArrays(t *testing.T) {
	// sum of arr filled with i*3 for len 37, via two canonical BCE loops.
	a := NewAsm()
	a.Load(0).Op(OpNewArray).Invoke(OpInvokeStatic, "Main.fillarr", 1)
	a.Invoke(OpInvokeStatic, "Main.sumarr", 1).Op(OpReturn)
	p := buildProg(t, a.MustBuild("main", 1), sumArrMethod(), fillArrMethod())
	diffTiers(t, "bce-loops", p, Int(37))
	v, err, _ := runTier(p, TierQuick, 0, Int(37))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3 * 37 * 36 / 2); v.AsInt() != want {
		t.Errorf("sum = %v, want %d", v, want)
	}

	// Null array reaching the canonical loop must still trap identically.
	n := NewAsm()
	n.Op(OpConstNull).Invoke(OpInvokeStatic, "Main.sumarr", 1).Op(OpReturn)
	diffTiers(t, "bce-null", buildProg(t, n.MustBuild("main", 0), sumArrMethod()))

	// Plain bounds trap outside any BCE region.
	b := NewAsm()
	b.ConstInt(2).Op(OpNewArray).Store(1)
	b.Load(1).Load(0).Op(OpALoad).Op(OpReturn)
	diffTiers(t, "bounds-trap", buildProg(t, b.MustBuild("main", 1)), Int(5))
	diffTiers(t, "bounds-neg", buildProg(t, b.MustBuild("main", 1)), Int(-1))
}

// TestTierDifferentialMixedArrays stores every kind of value into arrays
// that start in pointer-free storage: the move to general storage happens
// mid-program, behind an alias, and must be invisible at every tier.
func TestTierDifferentialMixedArrays(t *testing.T) {
	id := NewAsm()
	id.Load(0).Op(OpReturn)

	a := NewAsm()
	// slot 0 = probe index (arg), 1 = arr, 2 = alias of arr, 3 = second array, 4 = acc
	a.ConstInt(6).Op(OpNewArray).Op(OpDup).Store(1).Store(2)
	a.Load(1).ConstInt(0).ConstInt(5).Op(OpAStore)
	a.Load(1).ConstInt(1).ConstInt(-1).Op(OpAStore)
	a.Load(2).ConstInt(2).ConstInt(0).Op(OpAStore)
	a.Load(2).ConstInt(3).ConstFloat(2.5).Op(OpAStore) // first non-int: through the alias
	a.Load(1).ConstInt(4).Sym(OpNew, "Main").Op(OpAStore)
	a.Load(2).ConstInt(5).Sym(OpInvokeDynamic, "Main.id").Op(OpAStore)
	a.Load(1).ConstInt(0).Op(OpConstNull).Op(OpAStore) // null over an int
	a.ConstInt(2).Op(OpNewArray).Store(3)
	a.Load(3).ConstInt(0).ConstInt(-1 << 63).Op(OpAStore) // the one int without a word
	a.Load(3).ConstInt(1).ConstInt(3).Op(OpAStore)

	a.Load(1).ConstInt(1).Op(OpALoad).Load(2).ConstInt(2).Op(OpALoad).Op(OpAdd).Store(4) // -1 + 0
	a.Load(4).Load(1).ConstInt(3).Op(OpALoad).ConstInt(2).Op(OpMul).Op(OpAdd).Store(4)   // + 5.0
	a.Load(4).Load(2).ConstInt(4).Op(OpALoad).Sym(OpInstanceOf, "Main").Op(OpAdd).Store(4)
	a.Load(4).Load(1).ConstInt(5).Op(OpALoad).ConstInt(9).Invoke(OpInvokeHandle, "", 1).Op(OpAdd).Store(4)
	a.Load(4).Load(2).ConstInt(0).Op(OpALoad).Op(OpConstNull).Op(OpCmpEQ).Op(OpAdd).Store(4)
	a.Load(4).Load(3).ConstInt(0).Op(OpALoad).ConstInt(-1 << 63).Op(OpCmpEQ).Op(OpAdd).Store(4)
	a.Load(4).Load(3).ConstInt(1).Op(OpALoad).Op(OpAdd).Store(4)
	a.Load(4).Load(3).Op(OpArrayLen).Load(2).Op(OpArrayLen).Op(OpMul).Op(OpAdd).Store(4)
	a.Load(4).Load(1).Load(0).Op(OpALoad).Op(OpAdd).Op(OpReturn) // probe: may trap
	p := buildProg(t, a.MustBuild("main", 1), id.MustBuild("id", 1))

	diffTiers(t, "mixed", p, Int(1))
	diffTiers(t, "mixed-bounds", p, Int(6))
	diffTiers(t, "mixed-neg", p, Int(-1))
	v, err, _ := runTier(p, TierQuick, 0, Int(1))
	if err != nil {
		t.Fatal(err)
	}
	if want := -1.0 + 5 + 1 + 9 + 1 + 1 + 3 + 12 - 1; v.Kind() != KindFloat || v.AsFloat() != want {
		t.Errorf("mixed checksum = %v, want %v", v, want)
	}

	// The canonical BCE loops over an array that left int storage before
	// (sum) and between (fill) the loops.
	b := NewAsm()
	b.Load(0).Op(OpNewArray).Store(1)
	b.Load(1).ConstInt(0).ConstFloat(0.5).Op(OpAStore)
	b.Load(1).Invoke(OpInvokeStatic, "Main.fillarr", 1).Op(OpPop)
	b.Load(1).ConstInt(1).ConstFloat(1.5).Op(OpAStore)
	b.Load(1).Invoke(OpInvokeStatic, "Main.sumarr", 1).Op(OpReturn)
	pb := buildProg(t, b.MustBuild("main", 1), sumArrMethod(), fillArrMethod())
	diffTiers(t, "bce-mixed", pb, Int(9))
	diffTiers(t, "bce-mixed-short", pb, Int(1)) // the second store traps
	v, err, _ = runTier(pb, TierQuick, 0, Int(9))
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(3*9*8/2) - 3 + 1.5; v.AsFloat() != want {
		t.Errorf("bce-mixed sum = %v, want %v", v, want)
	}
}

// TestBCEAdversarialEntry jumps from outside the loop straight to the
// header with a negative index; the region proof must reject the loop so
// the access stays checked, at both tiers.
func TestBCEAdversarialEntry(t *testing.T) {
	a := NewAsm()
	// slot 0 = arr, 1 = sum, 2 = i
	a.ConstInt(0).Store(1)
	a.ConstInt(-1).Store(2)
	a.Jump(OpJump, "head") // bypasses the init below
	a.ConstInt(0).Store(2) // dead "init" right before the header
	a.Label("head")
	a.Load(2).Load(0).Op(OpArrayLen).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(1).Load(0).Load(2).Op(OpALoad).Op(OpAdd).Store(1)
	a.Load(2).ConstInt(1).Op(OpAdd).Store(2)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(OpReturn)
	adv := a.MustBuild("adv", 1)

	m := NewAsm()
	m.Load(0).Op(OpNewArray).Invoke(OpInvokeStatic, "Main.adv", 1).Op(OpReturn)
	p := buildProg(t, m.MustBuild("main", 1), adv)

	diffTiers(t, "adversarial-entry", p, Int(8))
	_, err, _ := runTier(p, TierQuick, 0, Int(8))
	if !errors.Is(err, ErrBounds) {
		t.Fatalf("negative index must trap, got %v", err)
	}
}

func TestTierDifferentialObjects(t *testing.T) {
	p := NewProgram()
	cell := NewClass("Cell", nil, "v")
	lock := NewClass("Lock", nil)
	animal := NewClass("Animal", nil)
	sa := NewAsm()
	sa.ConstInt(1).Op(OpReturn)
	animal.AddMethod(sa.MustBuild("speak", 1))
	dog := NewClass("Dog", animal)
	sd := NewAsm()
	sd.ConstInt(2).Op(OpReturn)
	dog.AddMethod(sd.MustBuild("speak", 1))
	for _, c := range []*Class{cell, lock, animal, dog} {
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}
	a := NewAsm()
	a.Sym(OpNew, "Cell").Store(0)
	a.Load(0).ConstInt(5).Sym(OpPutField, "v")
	a.Load(0).ConstInt(5).ConstInt(9).Sym(OpCAS, "v").Op(OpPop)
	a.Load(0).ConstInt(4).Sym(OpAtomicAdd, "v").Op(OpPop)
	a.Sym(OpNew, "Lock").Store(1)
	a.Load(1).Op(OpMonitorEnter)
	a.Load(1).Op(OpMonitorExit)
	a.Load(1).Op(OpWait)
	a.Load(1).Op(OpNotify)
	a.Op(OpPark)
	a.Sym(OpNew, "Dog").Store(2)
	a.Load(2).Sym(OpInstanceOf, "Animal").Op(OpPop)
	a.Load(2).Sym(OpCheckCast, "Animal")
	a.Invoke(OpInvokeVirtual, "speak", 1)
	a.Load(0).Sym(OpGetField, "v").Op(OpAdd)
	a.Op(OpReturn)
	m := a.MustBuild("main", 0)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.Entry = m
	diffTiers(t, "objects", p)
	v, err, _ := runTier(p, TierQuick, 0)
	if err != nil || v.AsInt() != 15 { // speak()=2 + v(9+4)=13
		t.Errorf("result = %v, %v", v, err)
	}
}

func TestTierDifferentialCalls(t *testing.T) {
	f := NewAsm()
	f.Load(0).ConstInt(2).Op(OpCmpLT).Jump(OpJumpIfNot, "rec")
	f.Load(0).Op(OpReturn)
	f.Label("rec")
	f.Load(0).ConstInt(1).Op(OpSub).Invoke(OpInvokeStatic, "Main.fib", 1)
	f.Load(0).ConstInt(2).Op(OpSub).Invoke(OpInvokeStatic, "Main.fib", 1)
	f.Op(OpAdd).Op(OpReturn)

	a := NewAsm()
	a.Sym(OpInvokeDynamic, "Main.fib").Store(1)
	a.Load(1).Load(0).Invoke(OpInvokeHandle, "", 1).Op(OpReturn)
	p := buildProg(t, a.MustBuild("main", 1), f.MustBuild("fib", 1))
	diffTiers(t, "fib-handle", p, Int(15))

	// Null handle trap.
	h := NewAsm()
	h.Op(OpConstNull).ConstInt(1).Invoke(OpInvokeHandle, "", 1).Op(OpReturn)
	diffTiers(t, "null-handle", buildProg(t, h.MustBuild("main", 0)))
}

// TestUnverifiableMethodTrapsAtInvoke: a method the verifier refuses
// never runs. Invoking it traps with ErrVerify at the call site, after
// the caller's earlier side effects, identically under every tier policy.
func TestUnverifiableMethodTrapsAtInvoke(t *testing.T) {
	for _, bad := range []struct {
		name string
		code func(a *Asm)
	}{
		{"underflow", func(a *Asm) { a.Op(OpPop).ConstInt(1).Op(OpReturn) }},
		{"unknown-opcode", func(a *Asm) { a.Emit(Instr{Op: Opcode(200)}); a.ConstInt(0).Op(OpReturn) }},
		{"inconsistent-join", func(a *Asm) {
			a.ConstInt(1).Jump(OpJumpIf, "join").ConstInt(2)
			a.Label("join")
			a.ConstInt(3).Op(OpReturn)
		}},
	} {
		b := NewAsm()
		bad.code(b)
		m := NewAsm()
		m.ConstInt(7).Store(0)
		m.Sym(OpNew, "Main").Op(OpPop) // a side effect before the call
		m.Invoke(OpInvokeStatic, "Main.bad", 0).Op(OpReturn)
		p := buildProg(t, m.MustBuild("main", 0), b.MustBuild("bad", 0))

		var want Counters
		for i, tier := range []TierPolicy{TierBaseline, TierQuick, TierAuto} {
			v, err, c := runTier(p, tier, 0)
			if !errors.Is(err, ErrVerify) || !strings.Contains(err.Error(), "Main.bad") {
				t.Fatalf("%s tier %d: v=%v err=%v, want ErrVerify in Main.bad", bad.name, tier, v, err)
			}
			if c.Object != 1 || c.Executed != 5 {
				t.Errorf("%s tier %d: counters %+v, want the caller's 5 instructions and 1 object", bad.name, tier, c)
			}
			if i > 0 && c != want {
				t.Errorf("%s tier %d: counters %+v differ from tier-0 %+v", bad.name, tier, c, want)
			}
			want = c
		}
	}
}

// TestFuelBlockGranularity: fuel is charged per basic block, so
// exhaustion fires within one block of the seed's per-instruction budget,
// and identically across tiers.
func TestFuelBlockGranularity(t *testing.T) {
	a := NewAsm()
	a.ConstInt(0).Store(0)
	a.Label("head")
	a.Load(0).ConstInt(1).Op(OpAdd).Store(0)
	a.Op(OpNop).Op(OpNop).Op(OpNop)
	a.Jump(OpJump, "head")
	p := buildProg(t, a.MustBuild("main", 0))
	const fuel = 1000
	const blockLen = 8 // head..jump inclusive

	_, e0, c0 := runTier(p, TierBaseline, fuel)
	_, e1, c1 := runTier(p, TierQuick, fuel)
	if !errors.Is(e0, ErrFuelExhausted) || !errors.Is(e1, ErrFuelExhausted) {
		t.Fatalf("errs = %v, %v", e0, e1)
	}
	for _, c := range []Counters{c0, c1} {
		if c.Executed < fuel-blockLen || c.Executed > fuel+blockLen {
			t.Errorf("Executed = %d, want within one block of %d", c.Executed, fuel)
		}
	}
	if c0 != c1 {
		t.Errorf("fuel counters diverged: %+v vs %+v", c0, c1)
	}
}

// TestTierUpOSR: a single long-running invocation, far past
// TierUpBackedges taken backedges, tiers up mid-loop via on-stack
// replacement.
func TestTierUpOSR(t *testing.T) {
	a := NewAsm()
	a.ConstInt(0).Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(1).Load(2).Op(OpAdd).Store(1)
	a.Load(2).ConstInt(1).Op(OpAdd).Store(2)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(OpReturn)
	m := a.MustBuild("main", 1)
	p := buildProg(t, m)

	vm := NewInterp(p)
	vm.Tier = TierAuto
	v, err := vm.Run(Int(5000))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(5000 * 4999 / 2); v.AsInt() != want {
		t.Errorf("sum = %v, want %d", v, want)
	}
	if st := vm.states[m]; st == nil || st.q == nil {
		t.Error("method did not tier up via OSR")
	}
}

// TestTierUpInvocationThreshold: calls below TierUpInvocations stay in
// tier-0; repeated calls cross the threshold and later calls run
// quickened.
func TestTierUpInvocationThreshold(t *testing.T) {
	sq := NewAsm()
	sq.Load(0).Load(0).Op(OpMul).Op(OpReturn)
	square := sq.MustBuild("square", 1)
	a := NewAsm()
	a.Load(0).Invoke(OpInvokeStatic, "Main.square", 1).Op(OpReturn)
	p := buildProg(t, a.MustBuild("main", 1), square)

	vm := NewInterp(p)
	vm.Tier = TierAuto
	for i := 0; i < 2*TierUpInvocations; i++ {
		if st := vm.states[square]; i < TierUpInvocations && st != nil && st.q != nil {
			t.Fatalf("tiered up after %d calls, below the threshold of %d", i, TierUpInvocations)
		}
		v, err := vm.Run(Int(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if v.AsInt() != int64(i*i) {
			t.Fatalf("square(%d) = %v", i, v)
		}
	}
	if st := vm.states[square]; st == nil || st.q == nil {
		t.Error("hot method did not tier up")
	}
}

// TestSteadyStateAllocs: after warm-up, both the flat tier-0 path and the
// quickened tier-1 path run without per-invocation allocations.
func TestSteadyStateAllocs(t *testing.T) {
	a := NewAsm()
	a.ConstInt(0).Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(1).Load(2).Op(OpAdd).Store(1)
	a.Load(2).ConstInt(1).Op(OpAdd).Store(2)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(OpReturn)
	m := a.MustBuild("main", 1)

	for _, tier := range []TierPolicy{TierBaseline, TierQuick} {
		p := buildProg(t, m)
		vm := NewInterp(p)
		vm.Tier = tier
		args := []Value{Int(64)}
		if _, err := vm.Call(m, args...); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := vm.Call(m, args...); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("tier=%d: %v allocs/op in steady state, want 0", tier, allocs)
		}
	}
}

// TestIntArrayAllocation: an array that only ever holds ints costs 8
// bytes an element plus a fixed header, in two allocations, and filling
// and summing it allocates nothing more — at either tier.
func TestIntArrayAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are perturbed by the race detector")
	}
	const n, header = 4096, 256
	a := NewAsm()
	a.Load(0).Op(OpNewArray).Invoke(OpInvokeStatic, "Main.fillarr", 1)
	a.Invoke(OpInvokeStatic, "Main.sumarr", 1).Op(OpReturn)
	m := a.MustBuild("main", 1)
	p := buildProg(t, m, sumArrMethod(), fillArrMethod())

	for _, tier := range []TierPolicy{TierBaseline, TierQuick} {
		vm := NewInterp(p)
		vm.Tier = tier
		args := []Value{Int(n)}
		run := func() {
			if v, err := vm.Call(m, args...); err != nil || v.AsInt() != 3*n*(n-1)/2 {
				t.Fatalf("tier=%d: %v, %v", tier, v, err)
			}
		}
		run() // warm: verify, quicken, grow the frame pool
		if allocs := testing.AllocsPerRun(20, run); allocs != 2 {
			t.Errorf("tier=%d: %v allocs/run, want 2 (object + elements)", tier, allocs)
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 8*n+header {
			t.Errorf("tier=%d: %d bytes/run for a %d-element int array, want <= %d", tier, perRun, n, 8*n+header)
		}
	}
}

// mkDispatchProgram builds a loop with one invokevirtual site whose
// receiver cycles through nrecv classes.
func mkDispatchProgram(t *testing.T, nrecv int) (*Program, *Method) {
	t.Helper()
	p := NewProgram()
	animal := NewClass("Animal", nil)
	sa := NewAsm()
	sa.ConstInt(0).Op(OpReturn)
	animal.AddMethod(sa.MustBuild("speak", 1))
	if err := p.AddClass(animal); err != nil {
		t.Fatal(err)
	}
	names := []string{"C1", "C2", "C3", "C4", "C5", "C6"}[:nrecv]
	for i, name := range names {
		c := NewClass(name, animal)
		s := NewAsm()
		s.ConstInt(int64(i + 1)).Op(OpReturn)
		c.AddMethod(s.MustBuild("speak", 1))
		if err := p.AddClass(c); err != nil {
			t.Fatal(err)
		}
	}

	a := NewAsm()
	// slot 0 = n (arg), 1 = recv array, 2 = sum, 3 = i
	a.ConstInt(int64(nrecv)).Op(OpNewArray).Store(1)
	for i, name := range names {
		a.Load(1).ConstInt(int64(i)).Sym(OpNew, name).Op(OpAStore)
	}
	a.ConstInt(0).Store(2)
	a.ConstInt(0).Store(3)
	a.Label("head")
	a.Load(3).Load(0).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(1).Load(3).ConstInt(int64(nrecv)).Op(OpRem).Op(OpALoad)
	a.Invoke(OpInvokeVirtual, "speak", 1)
	a.Load(2).Op(OpAdd).Store(2)
	a.Load(3).ConstInt(1).Op(OpAdd).Store(3)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(OpReturn)
	m := a.MustBuild("main", 1)
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	p.Entry = m
	return p, m
}

// siteFor finds the quickened IC for the method's invokevirtual site.
func siteFor(t *testing.T, vm *Interp, m *Method, kind Opcode) *siteIC {
	t.Helper()
	st := vm.states[m]
	if st == nil || st.q == nil {
		t.Fatal("method not quickened")
	}
	for _, ic := range st.q.sites {
		if ic.kind == kind {
			return ic
		}
	}
	t.Fatalf("no %v site found", kind)
	return nil
}

func TestInlineCachePolymorphic(t *testing.T) {
	p, m := mkDispatchProgram(t, 2)
	diffTiers(t, "poly-dispatch", p, Int(100))

	vm := NewInterp(p)
	vm.Tier = TierQuick
	v, err := vm.Run(Int(100))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(50*1 + 50*2); v.AsInt() != want {
		t.Errorf("sum = %v, want %d", v, want)
	}
	ic := siteFor(t, vm, m, OpInvokeVirtual)
	if ic.n != 2 {
		t.Errorf("IC degree = %d, want 2 (polymorphic)", ic.n)
	}
	if ic.hits < 90 || ic.misses > 2 {
		t.Errorf("IC hits=%d misses=%d; want ~98 hits, ≤2 misses", ic.hits, ic.misses)
	}
}

func TestInlineCacheMegamorphic(t *testing.T) {
	p, m := mkDispatchProgram(t, 6)
	diffTiers(t, "mega-dispatch", p, Int(120))

	vm := NewInterp(p)
	vm.Tier = TierQuick
	v, err := vm.Run(Int(120))
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(20 * (1 + 2 + 3 + 4 + 5 + 6)); v.AsInt() != want {
		t.Errorf("sum = %v, want %d", v, want)
	}
	ic := siteFor(t, vm, m, OpInvokeVirtual)
	if ic.n != icWidth {
		t.Errorf("IC degree = %d, want %d (megamorphic)", ic.n, icWidth)
	}
	if ic.misses == 0 {
		t.Error("megamorphic site should record misses")
	}
}

// TestProfileSeedsIC: under TierAuto the tier-0 receiver histogram seeds
// the tier-1 cache, so the first quickened execution already hits.
func TestProfileSeedsIC(t *testing.T) {
	p, m := mkDispatchProgram(t, 2)
	vm := NewInterp(p)
	vm.Tier = TierAuto
	for i := 0; i < 8; i++ {
		if _, err := vm.Run(Int(40)); err != nil {
			t.Fatal(err)
		}
	}
	ic := siteFor(t, vm, m, OpInvokeVirtual)
	if ic.misses != 0 {
		t.Errorf("profile-seeded IC recorded %d misses, want 0", ic.misses)
	}
	if ic.n != 2 {
		t.Errorf("seeded degree = %d, want 2", ic.n)
	}
}

func TestProfileCollector(t *testing.T) {
	ResetProfile()
	EnableProfiling()
	defer func() {
		DisableProfiling()
		ResetProfile()
	}()

	p, _ := mkDispatchProgram(t, 2)
	vm := NewInterp(p)
	vm.Tier = TierAuto
	for i := 0; i < 6; i++ {
		if _, err := vm.Run(Int(50)); err != nil {
			t.Fatal(err)
		}
	}

	methods := ProfileMethods()
	if len(methods) == 0 {
		t.Fatal("no methods collected")
	}
	if rate := ICHitRate(); rate < 0.9 {
		t.Errorf("IC hit rate = %.2f, want >= 0.9", rate)
	}
	var sb strings.Builder
	WriteProfile(&sb, 5)
	out := sb.String()
	for _, want := range []string{"Main.main", "rvm profile", "invokevirtual"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile output missing %q:\n%s", want, out)
		}
	}
}

// TestQuickenedCountersExact pins the counter semantics on a quickened
// program against hand-computed values (not just tier agreement).
func TestQuickenedCountersExact(t *testing.T) {
	p, _ := mkDispatchProgram(t, 2)
	_, err, c := runTier(p, TierQuick, 0, Int(10))
	if err != nil {
		t.Fatal(err)
	}
	// 10 virtual dispatches, 1 array alloc, 2 objects, 10 aloads in-loop.
	if c.Method != 10 {
		t.Errorf("Method = %d, want 10", c.Method)
	}
	if c.Object != 2 || c.Array != 1 {
		t.Errorf("Object=%d Array=%d, want 2, 1", c.Object, c.Array)
	}
}
