package kernels

import (
	"testing"

	"renaissance/internal/rvm"
	"renaissance/internal/rvm/ir"
	"renaissance/internal/rvm/jit"
	"renaissance/internal/rvm/opt"
)

func TestSpecsInventory(t *testing.T) {
	all := Specs()
	if len(all) != 68 {
		t.Fatalf("total specs = %d, want 68 (21+14+12+21)", len(all))
	}
	counts := map[string]int{}
	names := map[string]bool{}
	for _, s := range all {
		counts[s.Suite]++
		key := s.Suite + "/" + s.Name
		if names[key] {
			t.Errorf("duplicate spec %s", key)
		}
		names[key] = true
	}
	want := map[string]int{
		SuiteRenaissance: 21, SuiteDaCapo: 14, SuiteScalaBench: 12, SuiteSPECjvm: 21,
	}
	for suite, n := range want {
		if counts[suite] != n {
			t.Errorf("suite %s has %d specs, want %d", suite, counts[suite], n)
		}
	}
	if _, ok := Lookup(SuiteRenaissance, "fj-kmeans"); !ok {
		t.Error("Lookup(fj-kmeans) failed")
	}
	if _, ok := Lookup(SuiteRenaissance, "nope"); ok {
		t.Error("Lookup of bogus name succeeded")
	}
}

// TestAllKernelsDifferential builds every kernel at a small scale and
// checks that the bytecode interpreter, the baseline pipeline, and the
// full optimizing pipeline all compute the same checksum.
func TestAllKernelsDifferential(t *testing.T) {
	for _, spec := range Specs() {
		spec := spec
		t.Run(spec.Suite+"/"+spec.Name, func(t *testing.T) {
			p, err := Build(spec, 1)
			if err != nil {
				t.Fatal(err)
			}
			ref := rvm.NewInterp(p)
			ref.Fuel = 2_000_000_000
			want, err := ref.Run()
			if err != nil {
				t.Fatalf("bytecode reference: %v", err)
			}
			for _, pipe := range []*opt.Pipeline{opt.BaselinePipeline(), opt.OptPipeline()} {
				c, err := jit.Compile(p, pipe)
				if err != nil {
					t.Fatalf("%s compile: %v", pipe.Name, err)
				}
				got, stats, err := c.Run()
				if err != nil {
					t.Fatalf("%s run: %v", pipe.Name, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s checksum = %v, want %v", pipe.Name, got, want)
				}
				if stats.Cycles <= 0 {
					t.Errorf("%s charged no cycles", pipe.Name)
				}
			}
		})
	}
}

// TestOptBeatsBaselineOnMostKernels reproduces the Figure 6 expectation:
// the optimizing pipeline wins on the large majority of kernels.
func TestOptBeatsBaselineOnMostKernels(t *testing.T) {
	wins, total := 0, 0
	for _, spec := range Specs() {
		p, err := Build(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		base, err := jit.Compile(p, opt.BaselinePipeline())
		if err != nil {
			t.Fatal(err)
		}
		full, err := jit.Compile(p, opt.OptPipeline())
		if err != nil {
			t.Fatal(err)
		}
		_, bs, err := base.Run()
		if err != nil {
			t.Fatal(err)
		}
		_, fs, err := full.Run()
		if err != nil {
			t.Fatal(err)
		}
		total++
		if fs.Cycles < bs.Cycles {
			wins++
		}
	}
	if wins*4 < total*3 {
		t.Errorf("opt pipeline wins %d/%d kernels; expected >= 75%%", wins, total)
	}
}

// TestSPECjvmGuardMotionDominance: the paper's biggest GM effects are on
// scimark.lu (+69%/+137%) because disabling GM also disables vectorization
// (the impact itself is checked with the other headline couplings in
// experiments.TestImpactPipelineSmall).
func TestSPECjvmGuardMotionDominance(t *testing.T) {
	spec, ok := Lookup(SuiteSPECjvm, "scimark.lu.small")
	if !ok {
		t.Fatal("missing scimark.lu.small")
	}
	p, err := Build(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Disabling GM must also stop vectorization (the §5.6 interaction).
	disabled, err := jit.Compile(p, opt.OptPipeline().Disable(opt.NameGM))
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := disabled.Run()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops[ir.OpVecArith] != 0 {
		t.Errorf("vector ops executed with GM disabled: %d", stats.Ops[ir.OpVecArith])
	}
}

// TestScaleGrowsWork checks the scale knob.
func TestScaleGrowsWork(t *testing.T) {
	spec, _ := Lookup(SuiteRenaissance, "scrabble")
	p1, err := Build(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Build(spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := jit.Compile(p1, opt.BaselinePipeline())
	c2, _ := jit.Compile(p2, opt.BaselinePipeline())
	_, s1, err := c1.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, s2, err := c2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if s2.Cycles < s1.Cycles*3/2 {
		t.Errorf("scale 2 cycles (%d) not ~2x scale 1 (%d)", s2.Cycles, s1.Cycles)
	}
}

// TestEmptyWeights rejects a spec with no patterns.
func TestEmptyWeights(t *testing.T) {
	if _, err := Build(Spec{Name: "x", Suite: "y"}, 1); err == nil {
		t.Error("empty weights accepted")
	}
}

// TestKernelMetricProfiles spot-checks that kernels exhibit the metric
// profile their benchmark has in Table 7 (e.g. fj-kmeans is synch-heavy,
// finagle-chirper atomic-heavy, scrabble idynamic-heavy).
func TestKernelMetricProfiles(t *testing.T) {
	profile := func(name string) rvm.Counters {
		spec, ok := Lookup(SuiteRenaissance, name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		p, err := Build(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		vm := rvm.NewInterp(p)
		vm.Fuel = 2_000_000_000
		if _, err := vm.Run(); err != nil {
			t.Fatal(err)
		}
		return vm.Counters
	}
	fj := profile("fj-kmeans")
	chirper := profile("finagle-chirper")
	scrabble := profile("scrabble")

	if fj.Synch <= chirper.Synch || fj.Synch <= scrabble.Synch {
		t.Errorf("fj-kmeans synch (%d) should dominate (chirper %d, scrabble %d)",
			fj.Synch, chirper.Synch, scrabble.Synch)
	}
	if chirper.Atomic <= scrabble.Atomic {
		t.Errorf("finagle-chirper atomic (%d) should exceed scrabble (%d)",
			chirper.Atomic, scrabble.Atomic)
	}
	if scrabble.IDynamic <= fj.IDynamic {
		t.Errorf("scrabble idynamic (%d) should exceed fj-kmeans (%d)",
			scrabble.IDynamic, fj.IDynamic)
	}
}
