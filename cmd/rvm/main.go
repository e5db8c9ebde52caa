// Command rvm drives the RVM compiler substrate directly: it lists the
// benchmark kernels, compiles and runs them under a chosen pipeline with
// individual optimizations toggled, dumps the optimized IR, and compiles
// and runs minilang source files.
//
// Usage:
//
//	rvm list
//	rvm run -suite s -bench b [-scale n] [-pipeline opt|baseline] [-disable o1,o2] [-dump-ir]
//	rvm ml file.ml
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"renaissance/internal/minilang"
	"renaissance/internal/report"
	"renaissance/internal/rvm"
	"renaissance/internal/rvm/jit"
	"renaissance/internal/rvm/kernels"
	"renaissance/internal/rvm/opt"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList()
	case "run":
		err = cmdRun(os.Args[2:])
	case "ml":
		err = cmdML(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rvm:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  rvm list
  rvm run -suite s -bench b [-scale n] [-pipeline opt|baseline] [-disable o1,o2] [-dump-ir]
  rvm ml file.ml`)
}

func cmdList() error {
	t := &report.Table{Headers: []string{"suite", "kernel"}}
	for _, s := range kernels.Specs() {
		t.AddRow(s.Suite, s.Name)
	}
	return t.Write(os.Stdout)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	suite := fs.String("suite", kernels.SuiteRenaissance, "kernel suite")
	bench := fs.String("bench", "", "kernel name")
	scale := fs.Int("scale", 1, "workload scale")
	pipeline := fs.String("pipeline", "opt", "opt or baseline")
	disable := fs.String("disable", "", "comma-separated optimizations to disable")
	dumpIR := fs.Bool("dump-ir", false, "print the optimized IR of the entry function")
	if err := fs.Parse(args); err != nil {
		return err
	}
	spec, ok := kernels.Lookup(*suite, *bench)
	if !ok {
		return fmt.Errorf("no kernel %s/%s (try `rvm list`)", *suite, *bench)
	}
	prog, err := kernels.Build(spec, *scale)
	if err != nil {
		return err
	}

	var pipe *opt.Pipeline
	switch *pipeline {
	case "opt":
		pipe = opt.OptPipeline()
	case "baseline":
		pipe = opt.BaselinePipeline()
	default:
		return fmt.Errorf("unknown pipeline %q", *pipeline)
	}
	if *disable != "" {
		pipe.Disable(strings.Split(*disable, ",")...)
	}

	c, err := jit.Compile(prog, pipe)
	if err != nil {
		return err
	}
	v, st, err := c.Run()
	if err != nil {
		return err
	}
	fmt.Printf("kernel      %s/%s (scale %d)\n", spec.Suite, spec.Name, *scale)
	fmt.Printf("pipeline    %s\n", pipe)
	fmt.Printf("checksum    %v\n", v)
	fmt.Printf("cycles      %d\n", st.Cycles)
	fmt.Printf("instructions %d\n", st.Executed)
	fmt.Printf("code size   %d IR instructions over %d methods\n", c.CodeSize, c.MethodCount)
	fmt.Printf("compile     %v\n", c.CompileTime)
	if len(st.GuardsExecuted) > 0 {
		fmt.Println("guards:")
		for k, n := range st.GuardsExecuted {
			fmt.Printf("  %-28s %d\n", k, n)
		}
	}
	if *dumpIR {
		if f, ok := c.Prog.Func(c.Prog.Entry); ok {
			fmt.Println()
			fmt.Println(f)
		}
	}
	return nil
}

func cmdML(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("ml needs exactly one source file")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	p, err := minilang.Compile(string(src))
	if err != nil {
		return err
	}
	if p.Entry == nil {
		return fmt.Errorf("%s has no main function", args[0])
	}
	vm := rvm.NewInterp(p)
	v, err := vm.Run()
	if err != nil {
		return err
	}
	fmt.Printf("result %v (executed %d bytecode instructions)\n", v, vm.Counters.Executed)
	return nil
}
