// Package opt implements the RVM's optimizing passes: the four new
// optimizations the paper contributes (escape analysis with atomic
// operations §5.1, loop-wide lock coarsening §5.2, atomic-operation
// coalescing §5.3, method-handle simplification §5.4), the three existing
// optimizations it studies (speculative guard motion §5.5, loop
// vectorization §5.6, dominance-based duplication simulation §5.7), and
// the enabling passes every pipeline needs (canonicalization, inlining,
// dead-code elimination).
//
// Every pass is a semantics-preserving ir.Func transformation; the test
// suite checks each pass differentially against the bytecode interpreter
// on programs that trigger it.
package opt

import (
	"time"

	"renaissance/internal/rvm/ir"
)

// A Pass transforms one function, returning whether it changed anything.
type Pass struct {
	Name string
	Run  func(f *ir.Func, prog *ir.Program) bool
}

// Optimization names, used to selectively disable passes (the Figure 5
// methodology: "the impact of an optimization is the change in execution
// time observed when the optimization is selectively disabled").
const (
	NameCanonicalize = "canonicalize"
	NameDCE          = "dce"
	NameInline       = "inline"
	NameEAWA         = "eawa" // escape analysis w/ atomic operations
	NameLLC          = "llc"  // loop-wide lock coarsening
	NameAC           = "ac"   // atomic-operation coalescing
	NameMHS          = "mhs"  // method-handle simplification
	NameGM           = "gm"   // speculative guard motion
	NameLV           = "lv"   // loop vectorization
	NameDBDS         = "dbds" // dominance-based duplication simulation
	NameABCE         = "abce" // array bounds-check elimination
	NameStreamFuse   = "streamfuse"
)

// PaperOptimizations lists the seven §5 optimizations in the paper's
// Figure 5 column order (AC, DS, EAWA, GM, LV, LLC, MHS).
func PaperOptimizations() []string {
	return []string{NameAC, NameDBDS, NameEAWA, NameGM, NameLV, NameLLC, NameMHS}
}

// Pipeline is an ordered pass schedule with a disabled-set.
type Pipeline struct {
	Name     string
	Passes   []Pass
	Disabled map[string]bool
	// PassTime accumulates wall-clock compilation time per pass name
	// (Table 16's compilation-time accounting).
	PassTime map[string]time.Duration
}

// OptPipeline returns the full optimizing pipeline (the "Graal" role in
// Figure 6). Pass order matters: StreamFuse runs early so the synthesized
// loop bodies feed every later pass, MHS must run before inlining (it
// turns handle calls into direct calls that inlining can consume), ABCE
// before GM (deleting provable checks leaves GM only the speculative
// ones) and before LV (vectorization requires guard-free loop bodies,
// §5.6), and canonicalize/DCE run between the major passes to clean up.
func OptPipeline() *Pipeline {
	return &Pipeline{
		Name: "opt",
		Passes: []Pass{
			{NameCanonicalize, Canonicalize},
			{NameStreamFuse, StreamFuse},
			{NameMHS, MethodHandleSimplify},
			{NameInline, Inline},
			{NameCanonicalize, Canonicalize},
			{NameDBDS, DuplicateSimulate},
			{NameCanonicalize, Canonicalize},
			{NameEAWA, EscapeAnalysis},
			{NameAC, CoalesceAtomics},
			{NameLLC, CoarsenLocks},
			{NameABCE, BoundsCheckElim},
			{NameGM, GuardMotion},
			{NameLV, Vectorize},
			{NameCanonicalize, Canonicalize},
			{NameDCE, DeadCodeElim},
		},
		Disabled: map[string]bool{},
		PassTime: map[string]time.Duration{},
	}
}

// BaselinePipeline returns the conservative pipeline (the "C2" role in
// Figure 6): canonicalization, inlining, and cleanup, with none of the
// seven paper optimizations.
func BaselinePipeline() *Pipeline {
	return &Pipeline{
		Name: "baseline",
		Passes: []Pass{
			{NameCanonicalize, Canonicalize},
			{NameInline, Inline},
			{NameCanonicalize, Canonicalize},
			{NameDCE, DeadCodeElim},
		},
		Disabled: map[string]bool{},
		PassTime: map[string]time.Duration{},
	}
}

// Disable turns a pass off by name and returns the pipeline.
func (p *Pipeline) Disable(names ...string) *Pipeline {
	for _, n := range names {
		p.Disabled[n] = true
	}
	return p
}

// Compile runs the pipeline over every function of the program, iterating
// each function's schedule until a fixpoint (bounded), and records
// per-pass compilation time. Passes may synthesize new functions (stream
// fusion does); the worklist keeps draining until every function present
// in the program — original or synthesized — has been compiled.
func (p *Pipeline) Compile(prog *ir.Program) {
	compiled := map[string]bool{}
	for {
		var todo []string
		for _, name := range sortedFuncNames(prog) {
			if !compiled[name] {
				todo = append(todo, name)
			}
		}
		if len(todo) == 0 {
			return
		}
		for _, name := range todo {
			compiled[name] = true
			f := prog.Funcs[name]
			const maxRounds = 3
			for round := 0; round < maxRounds; round++ {
				changed := false
				for _, pass := range p.Passes {
					if p.Disabled[pass.Name] {
						continue
					}
					start := time.Now()
					if pass.Run(f, prog) {
						changed = true
					}
					p.PassTime[pass.Name] += time.Since(start)
				}
				if !changed {
					break
				}
			}
		}
	}
}

func sortedFuncNames(prog *ir.Program) []string {
	names := make([]string, 0, len(prog.Funcs))
	for n := range prog.Funcs {
		names = append(names, n)
	}
	// Insertion sort keeps this dependency-free and deterministic.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// String describes the pipeline configuration.
func (p *Pipeline) String() string {
	s := p.Name + "["
	for i, pass := range p.Passes {
		if i > 0 {
			s += " "
		}
		if p.Disabled[pass.Name] {
			s += "-"
		}
		s += pass.Name
	}
	return s + "]"
}

// instr is a small helper constructing instructions with all register
// fields defaulted to NoReg (the zero value of ir.Reg is register 0, which
// is a real register — passes must never rely on it accidentally).
func instr(op ir.Op) ir.Instr {
	return ir.Instr{Op: op, Dst: ir.NoReg, A: ir.NoReg, B: ir.NoReg, C: ir.NoReg}
}
