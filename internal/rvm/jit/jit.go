// Package jit ties the RVM's compilation pipeline together: it translates
// bytecode programs to IR, runs an optimization pipeline over them, and
// accounts for the quantities the paper's evaluation reports — compiled
// code size and hot-method counts (Figure 7), per-pass compilation time
// (Table 16), guard-execution profiles (§5.5), and per-method cycle
// attribution (§5.4).
package jit

import (
	"sort"
	"time"

	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
	"renaissance/internal/rvm/opt"
)

// Compiled is the result of compiling a bytecode program.
type Compiled struct {
	Prog *ir.Program
	// CodeSize is the total compiled IR size in instructions (the
	// Figure 7 "code size" analogue; the paper reports bytes of machine
	// code, we report IR instructions — both measure how much hot code
	// the compiler produced).
	CodeSize int
	// MethodCount is the number of compiled methods.
	MethodCount int
	// CompileTime is the total wall-clock pipeline time.
	CompileTime time.Duration
}

// Compile builds IR for the program and applies the pipeline.
func Compile(p *rvm.Program, pipe *opt.Pipeline) (*Compiled, error) {
	prog, err := ir.BuildProgram(p)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pipe.Compile(prog)
	elapsed := time.Since(start)

	size := 0
	for _, f := range prog.Funcs {
		size += f.Size()
	}
	return &Compiled{
		Prog:        prog,
		CodeSize:    size,
		MethodCount: len(prog.Funcs),
		CompileTime: elapsed,
	}, nil
}

// Run executes the compiled program and returns the result value plus the
// execution statistics.
func (c *Compiled) Run(args ...rvm.Value) (rvm.Value, *ir.Stats, error) {
	e := ir.NewExec(c.Prog)
	v, err := e.Run(args...)
	return v, e.Stats, err
}

// RunTraced executes with a memory tracer attached (cache simulation).
func (c *Compiled) RunTraced(tracer ir.MemTracer, args ...rvm.Value) (rvm.Value, *ir.Stats, error) {
	e := ir.NewExec(c.Prog)
	e.Tracer = tracer
	v, err := e.Run(args...)
	return v, e.Stats, err
}

// HotMethod is one entry of the hot-method profile.
type HotMethod struct {
	Name   string
	Cycles int64
	Calls  int64
	Size   int
}

// HotMethods returns the methods ordered by attributed cycles, descending
// (the §5.4 hottest-methods table and the Figure 7 hot-method count).
func (c *Compiled) HotMethods(stats *ir.Stats) []HotMethod {
	var out []HotMethod
	for name, cycles := range stats.FuncCycles {
		hm := HotMethod{Name: name, Cycles: cycles, Calls: stats.FuncCalls[name]}
		if f, ok := c.Prog.Func(name); ok {
			hm.Size = f.Size()
		}
		out = append(out, hm)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// HotCodeSize returns the total size and count of methods that consumed at
// least minShare (0..1) of the total cycles — the Figure 7 measure of
// "code compiled with the second-tier optimizing compiler".
func (c *Compiled) HotCodeSize(stats *ir.Stats, minShare float64) (size, count int) {
	total := stats.Cycles
	if total == 0 {
		return 0, 0
	}
	for _, hm := range c.HotMethods(stats) {
		if float64(hm.Cycles) < minShare*float64(total) {
			continue
		}
		size += hm.Size
		count++
	}
	return size, count
}
