package rvm

import "testing"

// The tier-up benchmarks measure the three execution engines on the
// kernels the quickener targets (see EXPERIMENTS.md "Interpreter
// tier-up"):
//
//   - legacy: the pre-verification dynamic-stack interpreter, forced by
//     marking every method unverified (the seed's only engine).
//   - tier0:  the flat-frame switch interpreter with verified stack
//     depths, pooled frames, and block-granularity fuel.
//   - tier1:  quickened token-threaded code with superinstructions and
//     inline caches.
//
// Run with -cpu 1: the interpreter is single-threaded and the numbers
// feed a per-op dispatch-cost table, not a scalability curve.

// benchProgram is buildProgram without a testing.T, so benchmarks can
// construct programs in package-level helpers.
func benchProgram(entry *Method, extra ...*Method) *Program {
	p := NewProgram()
	main := NewClass("Main", nil)
	entry.Static = true
	main.AddMethod(entry)
	for _, m := range extra {
		m.Static = true
		main.AddMethod(m)
	}
	if err := p.AddClass(main); err != nil {
		panic(err)
	}
	p.Entry = entry
	return p
}

// forceLegacy pins every method of the program to the dynamic-stack
// path, as if verification had failed — the seed interpreter's behavior.
func forceLegacy(vm *Interp, p *Program) {
	for _, m := range p.Methods() {
		st := vm.state(m)
		st.flat = false
		st.noQuick = true
	}
}

// benchTiers runs the program once per engine configuration under b.N.
func benchTiers(b *testing.B, p *Program, args ...Value) {
	b.Helper()
	engines := []struct {
		name   string
		tier   TierPolicy
		legacy bool
	}{
		{"legacy", TierBaseline, true},
		{"tier0", TierBaseline, false},
		{"tier1", TierQuick, false},
	}
	for _, e := range engines {
		b.Run(e.name, func(b *testing.B) {
			vm := NewInterp(p)
			vm.Tier = e.tier
			if e.legacy {
				forceLegacy(vm, p)
			}
			if _, err := vm.Run(args...); err != nil { // warm: verify + quicken
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := vm.Run(args...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDispatch is the pure dispatch kernel: a counted loop of
// loads, arithmetic, compares, and branches with no calls and no arrays,
// so per-instruction dispatch overhead dominates.
func BenchmarkDispatch(b *testing.B) {
	a := NewAsm()
	// slot 0 = n, 1 = sum, 2 = i, 3 = t
	a.ConstInt(0).Store(1)
	a.ConstInt(0).Store(2)
	a.Label("head")
	a.Load(2).Load(0).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(2).ConstInt(3).Op(OpMul).Store(3)
	a.Load(1).Load(3).Op(OpAdd).Store(1)
	a.Load(2).ConstInt(1).Op(OpAdd).Store(2)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(OpReturn)
	p := benchProgram(a.MustBuild("main", 1))
	benchTiers(b, p, Int(4096))
}

// BenchmarkInlineCache is the virtual-dispatch kernel: one invokevirtual
// site with a monomorphic receiver, the case the tier-1 inline cache
// turns into a single class-pointer compare.
func BenchmarkInlineCache(b *testing.B) {
	p := NewProgram()
	animal := NewClass("Animal", nil)
	sa := NewAsm()
	sa.ConstInt(0).Op(OpReturn)
	animal.AddMethod(sa.MustBuild("speak", 1))
	if err := p.AddClass(animal); err != nil {
		b.Fatal(err)
	}
	dog := NewClass("Dog", animal)
	sd := NewAsm()
	sd.ConstInt(2).Op(OpReturn)
	dog.AddMethod(sd.MustBuild("speak", 1))
	if err := p.AddClass(dog); err != nil {
		b.Fatal(err)
	}

	a := NewAsm()
	// slot 0 = n, 1 = recv, 2 = sum, 3 = i
	a.Sym(OpNew, "Dog").Store(1)
	a.ConstInt(0).Store(2)
	a.ConstInt(0).Store(3)
	a.Label("head")
	a.Load(3).Load(0).Op(OpCmpLT).Jump(OpJumpIfNot, "exit")
	a.Load(1).Invoke(OpInvokeVirtual, "speak", 1)
	a.Load(2).Op(OpAdd).Store(2)
	a.Load(3).ConstInt(1).Op(OpAdd).Store(3)
	a.Jump(OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(OpReturn)
	m := a.MustBuild("main", 1)
	m.Static = true
	mainC := NewClass("Main", nil)
	mainC.AddMethod(m)
	if err := p.AddClass(mainC); err != nil {
		b.Fatal(err)
	}
	p.Entry = m
	benchTiers(b, p, Int(4096))
}

// BenchmarkArrayLoop is the canonical counted array loop: fill then sum
// the same array eight times, so per-element access cost (null + bounds
// checks in tier-0, their eliminated forms in tier-1) dominates the one
// allocation.
func BenchmarkArrayLoop(b *testing.B) {
	a := NewAsm()
	// slot 0 = n, 1 = arr, 2 = sum, 3 = i, 4 = r
	a.Load(0).Op(OpNewArray).Store(1)
	a.ConstInt(0).Store(2)
	a.ConstInt(0).Store(4)
	a.Label("rep")
	a.Load(4).ConstInt(8).Op(OpCmpLT).Jump(OpJumpIfNot, "done")

	a.ConstInt(0).Store(3)
	a.Label("fill")
	a.Load(3).Load(1).Op(OpArrayLen).Op(OpCmpLT).Jump(OpJumpIfNot, "sum0")
	a.Load(1).Load(3).Load(3).Op(OpAStore)
	a.Load(3).ConstInt(1).Op(OpAdd).Store(3)
	a.Jump(OpJump, "fill")

	a.Label("sum0")
	a.ConstInt(0).Store(3)
	a.Label("sum")
	a.Load(3).Load(1).Op(OpArrayLen).Op(OpCmpLT).Jump(OpJumpIfNot, "next")
	a.Load(2).Load(1).Load(3).Op(OpALoad).Op(OpAdd).Store(2)
	a.Load(3).ConstInt(1).Op(OpAdd).Store(3)
	a.Jump(OpJump, "sum")

	a.Label("next")
	a.Load(4).ConstInt(1).Op(OpAdd).Store(4)
	a.Jump(OpJump, "rep")
	a.Label("done")
	a.Load(2).Op(OpReturn)
	p := benchProgram(a.MustBuild("main", 1))
	benchTiers(b, p, Int(1024))
}

// BenchmarkArrayAlloc is the allocation kernel: one NewArray plus one
// store per element, for an array that stays in pointer-free int storage
// and for one whose first store moves it to general storage. B/op is the
// number to read.
func BenchmarkArrayAlloc(b *testing.B) {
	const n = 1024
	for _, c := range []struct {
		name  string
		first Value
	}{
		{"ints", Int(1)},
		{"mixed", Float(1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				o := NewArray(n)
				o.Set(0, c.first)
				for j := 1; j < n; j++ {
					o.Set(j, Int(int64(j)))
				}
				if o.Len() != n {
					b.Fatal("bad length")
				}
			}
		})
	}
}
