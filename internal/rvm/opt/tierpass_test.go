package opt

import (
	"math/rand"
	"strings"
	"testing"

	"renaissance/internal/minilang"
	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
)

// abceProgram builds the canonical shape ABCE targets and GM cannot
// reach: the loop bound is recomputed from ArrayLen each iteration, so
// the limit is not loop-invariant.
//
//	main(n): arr = new[n]; s = 0; for i = 0; i < len(arr); i++ { arr[i] = i; s += arr[i] }
func abceProgram(t *testing.T) *rvm.Program {
	t.Helper()
	a := rvm.NewAsm()
	a.Load(0).Op(rvm.OpNewArray).Store(1)
	a.ConstInt(0).Store(2) // s
	a.ConstInt(0).Store(3) // i
	a.Label("head")
	a.Load(3).Load(1).Op(rvm.OpArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(1).Load(3).Load(3).Op(rvm.OpAStore)
	a.Load(2).Load(1).Load(3).Op(rvm.OpALoad).Op(rvm.OpAdd).Store(2)
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	return mainProgram(t, nil, a.MustBuild("main", 1))
}

func TestABCERemovesCanonicalLoopChecks(t *testing.T) {
	p := abceProgram(t)
	const n = 100
	_, without := compileAndRun(t, p, nil, rvm.Int(n))
	pipe := &Pipeline{Passes: []Pass{{NameABCE, BoundsCheckElim}}, Disabled: map[string]bool{}, PassTime: Duration0()}
	prog, with := compileAndRun(t, p, pipe, rvm.Int(n))

	if without.GuardsExecuted["BoundsCheck"] < 2*n {
		t.Fatalf("baseline executed too few bounds guards: %v", without.GuardsExecuted)
	}
	if with.GuardsExecuted["BoundsCheck"] != 0 {
		t.Errorf("bounds guards survive ABCE: %v", with.GuardsExecuted)
	}
	// The header's own null check stays (once per iteration plus the exit
	// test); the two per-access body null checks must be gone.
	if got := with.GuardsExecuted["NullCheck"]; got > n+1 {
		t.Errorf("body null checks survive ABCE: %d > %d", got, n+1)
	}
	f := prog.Funcs["Main.main"]
	if countOp(f, ir.OpGuardBounds) != 0 {
		t.Errorf("static bounds guards remain:\n%s", f)
	}
}

// TestABCEKeepsUnprovableChecks: adversarial variants must keep every
// guard — a deleted guard here would be a soundness hole, not a speedup.
func TestABCEKeepsUnprovableChecks(t *testing.T) {
	type variant struct {
		name  string
		build func(a *rvm.Asm)
	}
	variants := []variant{
		{"le-bound", func(a *rvm.Asm) { // i <= len(a): last iteration out of range
			a.Load(3).Load(1).Op(rvm.OpArrayLen).Op(rvm.OpCmpLE).Jump(rvm.OpJumpIfNot, "exit")
		}},
		{"offset-index", func(a *rvm.Asm) { // header tests i+1 < len: a[i] fine but i+1 shape differs
			a.Load(3).ConstInt(1).Op(rvm.OpAdd).Load(1).Op(rvm.OpArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
		}},
	}
	for _, v := range variants {
		a := rvm.NewAsm()
		a.Load(0).Op(rvm.OpNewArray).Store(1)
		a.ConstInt(0).Store(2)
		a.ConstInt(0).Store(3)
		a.Label("head")
		v.build(a)
		a.Load(1).Load(3).Load(3).Op(rvm.OpAStore)
		a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
		a.Jump(rvm.OpJump, "head")
		a.Label("exit")
		a.Load(2).Op(rvm.OpReturn)
		p := mainProgram(t, nil, a.MustBuild("main", 1))
		prog, err := ir.BuildProgram(p)
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		f := prog.Funcs["Main.main"]
		before := countOp(f, ir.OpGuardBounds)
		BoundsCheckElim(f, prog)
		if after := countOp(f, ir.OpGuardBounds); after != before {
			t.Errorf("%s: ABCE deleted unprovable guards (%d -> %d)\n%s", v.name, before, after, f)
		}
	}

	// Negative-start induction: i runs from the argument, which is
	// negative at runtime — the guard must stay and fire.
	a := rvm.NewAsm()
	a.ConstInt(4).Op(rvm.OpNewArray).Store(1)
	a.ConstInt(0).Store(2)
	a.Load(0).Store(3) // i = n (caller passes a negative value)
	a.Label("head")
	a.Load(3).Load(1).Op(rvm.OpArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(2).Load(1).Load(3).Op(rvm.OpALoad).Op(rvm.OpAdd).Store(2)
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	p := mainProgram(t, nil, a.MustBuild("main", 1))
	prog, err := ir.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.Funcs["Main.main"]
	before := countOp(f, ir.OpGuardBounds)
	BoundsCheckElim(f, prog)
	if after := countOp(f, ir.OpGuardBounds); after != before {
		t.Fatalf("negative-start: guards deleted (%d -> %d)\n%s", before, after, f)
	}
	if _, err := ir.NewExec(prog).Run(rvm.Int(-3)); err == nil {
		t.Error("negative index did not trap")
	}
}

// streamSource is a minilang pipeline whose expected value is computed by
// hand: doubles 0..9 to 0..18, keeps >4 (6,8,...,18 sums to 84), + init 7.
const streamSource = `
func double(x int) int { return x * 2; }
func pos(x int) bool { return x > 4; }
func add(a int, b int) int { return a + b; }
func main() int {
	var a = newarray(10);
	for var i = 0; i < len(a); i = i + 1 { a[i] = i; }
	return sreduce(sfilter(smap(a, double), pos), 7, add);
}`

func TestStreamFuseFusesPipeline(t *testing.T) {
	p, err := minilang.Compile(streamSource)
	if err != nil {
		t.Fatal(err)
	}
	pipe := &Pipeline{
		Passes:   []Pass{{NameCanonicalize, Canonicalize}, {NameStreamFuse, StreamFuse}},
		Disabled: map[string]bool{}, PassTime: Duration0()}
	prog, stats := compileAndRun(t, p, pipe)

	fused := 0
	for name := range prog.Funcs {
		if strings.HasPrefix(name, "$fused") {
			fused++
		}
	}
	if fused != 1 {
		t.Fatalf("synthesized functions = %d, want 1", fused)
	}
	main := prog.Funcs["ML.main"]
	for _, b := range main.Blocks {
		for _, in := range b.Code {
			if in.Op == ir.OpCallStatic && streamKind(in.Sym) != "" {
				t.Errorf("stage call survives fusion: %s", in)
			}
		}
	}
	// Only the source array is allocated; the per-stage intermediates
	// ($smap's output plus $sfilter's two-pass output) are gone.
	if stats.Ops[ir.OpNewArray] != 1 {
		t.Errorf("executed %d array allocations, want 1", stats.Ops[ir.OpNewArray])
	}
	if got, err := ir.NewExec(prog).Run(); err != nil || got.AsInt() != 91 {
		t.Errorf("fused result = %v (%v), want 91", got, err)
	}
}

func TestStreamFuseSkipsSharedIntermediate(t *testing.T) {
	// The mapped array is stored in a variable and read twice, so it is
	// observable and must be materialized.
	src := `
func double(x int) int { return x * 2; }
func add(a int, b int) int { return a + b; }
func main() int {
	var a = newarray(5);
	for var i = 0; i < len(a); i = i + 1 { a[i] = i + 1; }
	var m = smap(a, double);
	return sreduce(m, 0, add) + m[0];
}`
	p, err := minilang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	pipe := &Pipeline{
		Passes:   []Pass{{NameCanonicalize, Canonicalize}, {NameStreamFuse, StreamFuse}},
		Disabled: map[string]bool{}, PassTime: Duration0()}
	prog, _ := compileAndRun(t, p, pipe)
	for name := range prog.Funcs {
		if strings.HasPrefix(name, "$fused") {
			t.Errorf("fused a shared intermediate: %s", name)
		}
	}
}

func TestStreamFuseSpeedup(t *testing.T) {
	src := `
func inc(x int) int { return x + 1; }
func odd(x int) bool { return x % 2 == 1; }
func add(a int, b int) int { return a + b; }
func main() int {
	var a = newarray(64);
	for var i = 0; i < len(a); i = i + 1 { a[i] = i; }
	var s = 0;
	for var r = 0; r < 8; r = r + 1 {
		s = s + sreduce(sfilter(smap(a, inc), odd), 0, add);
	}
	return s;
}`
	p, err := minilang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	withoutPipe := OptPipeline().Disable(NameStreamFuse, NameABCE)
	without := cyclesWith(t, p, withoutPipe)
	with := cyclesWith(t, p, OptPipeline())
	if float64(with) > 0.8*float64(without) {
		t.Errorf("fusion speedup too small: %d -> %d cycles", without, with)
	}
}

// TestOptPipelineOnMinilangCorpus runs representative corpus units —
// including the array-loop and stream variants — through the full
// pipeline, checking IR results against the bytecode interpreter.
func TestOptPipelineOnMinilangCorpus(t *testing.T) {
	for i, src := range minilang.Corpus(12) {
		p, err := minilang.Compile(src)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		compileAndRun(t, p, OptPipeline())
	}
}

// TestTierDifferentialFuzz drives the random bytecode corpus through the
// baseline tier-0 interpreter and with quickening forced; values, traps,
// and all dynamic counters must agree (the rvm tier-up satellite).
func TestTierDifferentialFuzz(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed % 150))
		p := genProgram(rng, seed >= 150)

		vm0 := rvm.NewInterp(p)
		vm0.Tier = rvm.TierBaseline
		v0, e0 := vm0.Run()
		vm1 := rvm.NewInterp(p)
		vm1.Tier = rvm.TierQuick
		v1, e1 := vm1.Run()

		if (e0 == nil) != (e1 == nil) || (e0 != nil && e0.Error() != e1.Error()) {
			t.Fatalf("seed %d: traps diverged: tier0=%v tier1=%v", seed, e0, e1)
		}
		if e0 == nil && !v0.Equal(v1) {
			t.Errorf("seed %d: results diverged: tier0=%v tier1=%v", seed, v0, v1)
		}
		if vm0.Counters != vm1.Counters {
			t.Errorf("seed %d: counters diverged:\n tier0: %+v\n tier1: %+v", seed, vm0.Counters, vm1.Counters)
		}
	}
}
