package jit

import (
	"testing"

	"renaissance/internal/rvm"
	"renaissance/internal/rvm/kernels"
	"renaissance/internal/rvm/opt"
)

func buildKernel(t *testing.T, suite, name string) *rvm.Program {
	t.Helper()
	spec, ok := kernels.Lookup(suite, name)
	if !ok {
		t.Fatalf("no kernel %s/%s", suite, name)
	}
	p, err := kernels.Build(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileAccounting(t *testing.T) {
	p := buildKernel(t, kernels.SuiteRenaissance, "scrabble")
	pipe := opt.OptPipeline()
	c, err := Compile(p, pipe)
	if err != nil {
		t.Fatal(err)
	}
	if c.CodeSize <= 0 || c.MethodCount <= 0 {
		t.Errorf("code size = %d, methods = %d", c.CodeSize, c.MethodCount)
	}
	if c.CompileTime <= 0 {
		t.Error("no compile time recorded")
	}
	if len(pipe.PassTime) == 0 {
		t.Error("no per-pass times")
	}
}

func TestHotMethodsAndCodeSize(t *testing.T) {
	p := buildKernel(t, kernels.SuiteRenaissance, "scrabble")
	c, err := Compile(p, opt.OptPipeline())
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	hot := c.HotMethods(stats)
	if len(hot) == 0 {
		t.Fatal("no hot methods")
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].Cycles > hot[i-1].Cycles {
			t.Errorf("hot methods not sorted: %v", hot)
		}
	}
	if hot[0].Name != "Main.main" && hot[0].Cycles <= 0 {
		t.Errorf("unexpected hottest method %+v", hot[0])
	}
	size, count := c.HotCodeSize(stats, 0.01)
	if size <= 0 || count <= 0 {
		t.Errorf("hot code size = %d, count = %d", size, count)
	}
	allSize, allCount := c.HotCodeSize(stats, 0)
	if allSize < size || allCount < count {
		t.Errorf("threshold 0 should include everything: %d/%d vs %d/%d",
			allSize, allCount, size, count)
	}
}

func TestBaselineSmallerCompileTimeBudget(t *testing.T) {
	// The baseline pipeline compiles fewer passes; this mirrors Table 16's
	// observation that optimizations cost compilation time.
	p := buildKernel(t, kernels.SuiteSPECjvm, "scimark.lu.small")
	base, full := opt.BaselinePipeline(), opt.OptPipeline()
	for _, pipe := range []*opt.Pipeline{base, full} {
		if _, err := Compile(p, pipe); err != nil {
			t.Fatal(err)
		}
	}
	if len(full.PassTime) <= len(base.PassTime) {
		t.Errorf("full pipeline should record more passes: %d vs %d",
			len(full.PassTime), len(base.PassTime))
	}
}

func TestRunTraced(t *testing.T) {
	p := buildKernel(t, kernels.SuiteRenaissance, "als")
	c, err := Compile(p, opt.OptPipeline())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Traced run agrees and reports accesses.
	tr := &countingTracer{}
	got, _, err := c.RunTraced(tr)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("traced result %v != %v", got, want)
	}
	if tr.n == 0 {
		t.Error("tracer saw no accesses")
	}
}

type countingTracer struct{ n int }

func (c *countingTracer) Access(obj *rvm.Object, index int, write bool) { c.n++ }

func TestEntrylessProgramErrors(t *testing.T) {
	// An empty program has no entry: compiling and running it must
	// surface the error.
	p := rvm.NewProgram()
	mainC := rvm.NewClass("Main", nil)
	if err := p.AddClass(mainC); err != nil {
		t.Fatal(err)
	}
	c, err := Compile(p, opt.OptPipeline())
	if err == nil {
		_, _, err = c.Run()
	}
	if err == nil {
		t.Error("entry-less program compiled and ran")
	}
}
