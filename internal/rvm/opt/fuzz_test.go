package opt

import (
	"math/rand"
	"testing"

	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
)

// TestFuzzDifferential generates random structured programs (arithmetic on
// locals, nested counted loops, conditionals, object fields, arrays, CAS,
// monitors, type tests) and checks that the bytecode interpreter, the
// unoptimized IR, and the fully optimized IR all compute the same result.
// This is the repository-wide semantic oracle for the optimization passes.
func TestFuzzDifferential(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		mixed := seed >= 150 // the second half stores every kind into an array
		rng := rand.New(rand.NewSource(seed % 150))
		p := genProgram(rng, mixed)

		want, werr := rvm.NewInterp(p).Run()
		if werr != nil {
			// Generator bug: random programs must always be valid.
			t.Fatalf("seed %d: reference interpreter failed: %v", seed, werr)
		}

		prog, err := ir.BuildProgram(p)
		if err != nil {
			t.Fatalf("seed %d: BuildProgram: %v", seed, err)
		}
		rawExec := ir.NewExec(prog)
		raw, err := rawExec.Run()
		if err != nil {
			t.Fatalf("seed %d: raw IR failed: %v", seed, err)
		}
		if !raw.Equal(want) {
			t.Fatalf("seed %d: raw IR %v != bytecode %v", seed, raw, want)
		}

		for _, pipe := range []*Pipeline{BaselinePipeline(), OptPipeline()} {
			optProg, err := ir.BuildProgram(p)
			if err != nil {
				t.Fatal(err)
			}
			pipe.Compile(optProg)
			got, err := ir.NewExec(optProg).Run()
			if err != nil {
				t.Fatalf("seed %d (%s): optimized IR failed: %v", seed, pipe.Name, err)
			}
			if !got.Equal(want) {
				t.Fatalf("seed %d (%s): optimized %v != bytecode %v\n%s",
					seed, pipe.Name, got, want, optProg.Funcs[optProg.Entry])
			}
		}
	}
}

// genProgram builds a random but always-terminating, trap-free program.
// Locals: 0..3 ints, 4 = object (Cell with field x), 5 = array of len 8.
// With mixed set, local 10 is a second array of len 8 that receives
// stores of every kind — ints (including the one with no pointer-free
// encoding), floats, nulls and references — so it leaves int storage at
// a random point of the program; its elements are only copied, compared
// and type-tested, never used in arithmetic. With mixed clear the
// generator draws exactly the programs it always has.
func genProgram(rng *rand.Rand, mixed bool) *rvm.Program {
	p := rvm.NewProgram()
	cell := rvm.NewClass("Cell", nil, "x")
	base := rvm.NewClass("Base", nil)
	derived := rvm.NewClass("Derived", base)
	_ = p.AddClass(cell)
	_ = p.AddClass(base)
	_ = p.AddClass(derived)

	a := rvm.NewAsm()
	// Initialize locals.
	for slot := 0; slot < 4; slot++ {
		a.ConstInt(int64(rng.Intn(20) - 5)).Store(slot)
	}
	a.Sym(rvm.OpNew, "Cell").Store(4)
	a.Load(4).ConstInt(int64(rng.Intn(10))).Sym(rvm.OpPutField, "x")
	a.ConstInt(8).Op(rvm.OpNewArray).Store(5)
	if rng.Intn(2) == 0 {
		a.Sym(rvm.OpNew, "Derived").Store(6)
	} else {
		a.Sym(rvm.OpNew, "Base").Store(6)
	}

	const mixedArr = 10
	if mixed {
		a.ConstInt(8).Op(rvm.OpNewArray).Store(mixedArr)
	}

	label := 0
	fresh := func(prefix string) string {
		label++
		return prefix + string(rune('a'+label%26)) + string(rune('0'+label%10)) + string(rune('0'+(label/10)%10))
	}

	var stmts func(depth int)
	// expr pushes one int value derived from the int locals.
	expr := func() {
		switch rng.Intn(5) {
		case 0:
			a.ConstInt(int64(rng.Intn(12) - 3))
		case 1:
			a.Load(rng.Intn(4))
		case 2:
			a.Load(rng.Intn(4))
			a.ConstInt(int64(rng.Intn(6) + 1))
			a.Op([]rvm.Opcode{rvm.OpAdd, rvm.OpSub, rvm.OpMul}[rng.Intn(3)])
		case 3:
			a.Load(4).Sym(rvm.OpGetField, "x")
		case 4:
			// Safe array read at a bounded index.
			a.Load(5).ConstInt(int64(rng.Intn(8))).Op(rvm.OpALoad)
		}
		// Keep magnitudes bounded.
		a.ConstInt(1000003).Op(rvm.OpRem)
	}
	// mixedStmt stores into, copies within, or inspects the mixed array.
	mixedStmt := func() {
		elem := func() { a.Load(mixedArr).ConstInt(int64(rng.Intn(8))) }
		switch rng.Intn(9) {
		case 0:
			elem()
			expr()
			a.Op(rvm.OpAStore)
		case 1:
			elem()
			a.ConstFloat(float64(rng.Intn(9)) / 2).Op(rvm.OpAStore)
		case 2:
			elem()
			a.Op(rvm.OpConstNull).Op(rvm.OpAStore)
		case 3:
			elem()
			a.Load([]int{4, 5, 6, mixedArr}[rng.Intn(4)]).Op(rvm.OpAStore)
		case 4:
			elem()
			a.ConstInt(-1 << 63).Op(rvm.OpAStore)
		case 5: // copy an element of whatever kind
			elem()
			elem()
			a.Op(rvm.OpALoad).Op(rvm.OpAStore)
		case 6:
			elem()
			a.Op(rvm.OpALoad).Op(rvm.OpConstNull).Op(rvm.OpCmpEQ).Store(rng.Intn(4))
		case 7:
			elem()
			a.Op(rvm.OpALoad).Sym(rvm.OpInstanceOf, "Cell").Store(rng.Intn(4))
		case 8:
			elem()
			a.Op(rvm.OpALoad)
			elem()
			a.Op(rvm.OpALoad).Op(rvm.OpCmpEQ).Store(rng.Intn(4))
		}
	}
	choices := 8
	if mixed {
		choices = 11 // 8..10: mixed-array statements
	}
	stmts = func(depth int) {
		n := rng.Intn(4) + 1
		for s := 0; s < n; s++ {
			switch choice := rng.Intn(choices); {
			case choice >= 8:
				mixedStmt()
			case choice < 3: // assignment
				expr()
				a.Store(rng.Intn(4))
			case choice == 3: // field write
				a.Load(4)
				expr()
				a.Sym(rvm.OpPutField, "x")
			case choice == 4: // array write at safe index
				a.Load(5).ConstInt(int64(rng.Intn(8)))
				expr()
				a.Op(rvm.OpAStore)
			case choice == 5 && depth > 0: // if/else on a comparison
				elseL, endL := fresh("e"), fresh("n")
				expr()
				expr()
				a.Op([]rvm.Opcode{rvm.OpCmpLT, rvm.OpCmpEQ, rvm.OpCmpGE}[rng.Intn(3)])
				a.Jump(rvm.OpJumpIfNot, elseL)
				stmts(depth - 1)
				a.Jump(rvm.OpJump, endL)
				a.Label(elseL)
				stmts(depth - 1)
				a.Label(endL)
			case choice == 6 && depth > 0: // bounded counted loop
				head, exit := fresh("h"), fresh("x")
				counter := 7 // dedicated loop counter slot per nest level
				a.ConstInt(0).Store(counter + depth)
				a.Label(head)
				a.Load(counter + depth).ConstInt(int64(rng.Intn(6) + 2)).Op(rvm.OpCmpLT)
				a.Jump(rvm.OpJumpIfNot, exit)
				stmts(depth - 1)
				a.Load(counter + depth).ConstInt(1).Op(rvm.OpAdd).Store(counter + depth)
				a.Jump(rvm.OpJump, head)
				a.Label(exit)
			case choice == 7: // concurrency ops and type tests
				switch rng.Intn(4) {
				case 0:
					a.Load(4).Op(rvm.OpMonitorEnter)
					a.Load(4)
					expr()
					a.Sym(rvm.OpPutField, "x")
					a.Load(4).Op(rvm.OpMonitorExit)
				case 1:
					// CAS with the currently loaded value: always succeeds.
					a.Load(4).Load(4).Sym(rvm.OpGetField, "x")
					expr()
					a.Sym(rvm.OpCAS, "x").Op(rvm.OpPop)
				case 2:
					a.Load(6).Sym(rvm.OpInstanceOf, "Base")
					a.Store(rng.Intn(4))
				case 3:
					a.Load(4)
					expr()
					a.Sym(rvm.OpAtomicAdd, "x").Op(rvm.OpPop)
				}
			default:
				expr()
				a.Store(rng.Intn(4))
			}
		}
	}
	stmts(2)

	// Checksum: combine locals, field, and two array cells.
	a.Load(0).Load(1).Op(rvm.OpAdd).Load(2).Op(rvm.OpAdd).Load(3).Op(rvm.OpAdd)
	a.Load(4).Sym(rvm.OpGetField, "x").Op(rvm.OpAdd)
	a.Load(5).ConstInt(0).Op(rvm.OpALoad).Op(rvm.OpAdd)
	a.Load(5).ConstInt(7).Op(rvm.OpALoad).Op(rvm.OpAdd)
	if mixed {
		// Fold every mixed element in as null-ness, truthiness and type.
		for i := int64(0); i < 8; i++ {
			a.Load(mixedArr).ConstInt(i).Op(rvm.OpALoad).Op(rvm.OpConstNull).Op(rvm.OpCmpEQ).Op(rvm.OpAdd)
			skip := fresh("t")
			a.Load(mixedArr).ConstInt(i).Op(rvm.OpALoad).Jump(rvm.OpJumpIfNot, skip)
			a.ConstInt(i + 2).Op(rvm.OpMul)
			a.Label(skip)
			a.Load(mixedArr).ConstInt(i).Op(rvm.OpALoad).Sym(rvm.OpInstanceOf, "Base").Op(rvm.OpAdd)
			a.ConstInt(1000003).Op(rvm.OpRem)
		}
	}
	a.Op(rvm.OpReturn)

	m := a.MustBuild("main", 0)
	mainC := rvm.NewClass("Main", nil)
	mainC.AddMethod(m)
	_ = p.AddClass(mainC)
	p.Entry = m
	return p
}
