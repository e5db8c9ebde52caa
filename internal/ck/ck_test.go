package ck

import (
	"os"
	"path/filepath"
	"testing"
)

// writeTestPackage creates a temp dir with a small Go package of known CK
// structure.
func writeTestPackage(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	src := `package sample

type Base struct {
	id int
}

func (b *Base) ID() int { return b.id }
func (b *Base) SetID(v int) { b.id = v }

type Derived struct {
	Base
	name string
}

func (d *Derived) Name() string { return d.name }
func (d *Derived) Describe() string { return d.Name() }

type Other struct {
	ref *Derived
	n   int
}

func (o *Other) Use() int { return o.ref.Name2() }
func (o *Other) Count() int { return o.n }

type Leaf struct {
	Derived
}
`
	if err := os.WriteFile(filepath.Join(dir, "sample.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func analyze(t *testing.T) map[string]ClassMetrics {
	t.Helper()
	rep, err := AnalyzeDirs([]string{writeTestPackage(t)})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]ClassMetrics{}
	for _, c := range rep.Classes {
		out[c.Name] = c
	}
	return out
}

func TestWMC(t *testing.T) {
	m := analyze(t)
	if m["Base"].WMC != 2 || m["Derived"].WMC != 2 || m["Other"].WMC != 2 || m["Leaf"].WMC != 0 {
		t.Errorf("WMC: base=%d derived=%d other=%d leaf=%d",
			m["Base"].WMC, m["Derived"].WMC, m["Other"].WMC, m["Leaf"].WMC)
	}
}

func TestDIT(t *testing.T) {
	m := analyze(t)
	if m["Base"].DIT != 0 {
		t.Errorf("Base DIT = %d", m["Base"].DIT)
	}
	if m["Derived"].DIT != 1 {
		t.Errorf("Derived DIT = %d", m["Derived"].DIT)
	}
	if m["Leaf"].DIT != 2 {
		t.Errorf("Leaf DIT = %d", m["Leaf"].DIT)
	}
}

func TestNOC(t *testing.T) {
	m := analyze(t)
	if m["Base"].NOC != 1 {
		t.Errorf("Base NOC = %d", m["Base"].NOC)
	}
	if m["Derived"].NOC != 1 {
		t.Errorf("Derived NOC = %d", m["Derived"].NOC)
	}
	if m["Other"].NOC != 0 {
		t.Errorf("Other NOC = %d", m["Other"].NOC)
	}
}

func TestCBOAndRFC(t *testing.T) {
	m := analyze(t)
	// Other references Derived (field + method body).
	if m["Other"].CBO < 1 {
		t.Errorf("Other CBO = %d, want >= 1", m["Other"].CBO)
	}
	// Derived.Describe calls Name: RFC = 2 methods + >=1 call.
	if m["Derived"].RFC < 3 {
		t.Errorf("Derived RFC = %d, want >= 3", m["Derived"].RFC)
	}
}

func TestLCOM(t *testing.T) {
	m := analyze(t)
	// Base: both methods access `id` -> Q=1, P=0 -> LCOM 0.
	if m["Base"].LCOM != 0 {
		t.Errorf("Base LCOM = %d, want 0", m["Base"].LCOM)
	}
	// Other: Use touches ref, Count touches n -> disjoint pair -> LCOM 1.
	if m["Other"].LCOM != 1 {
		t.Errorf("Other LCOM = %d, want 1", m["Other"].LCOM)
	}
}

func TestSummarize(t *testing.T) {
	rep, err := AnalyzeDirs([]string{writeTestPackage(t)})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Summarize()
	if s.N != 4 {
		t.Fatalf("N = %d", s.N)
	}
	if s.Sum.WMC != 6 {
		t.Errorf("sum WMC = %d, want 6", s.Sum.WMC)
	}
	if s.Avg[0] != 1.5 {
		t.Errorf("avg WMC = %g, want 1.5", s.Avg[0])
	}
	if rep.TypeCount != 4 {
		t.Errorf("TypeCount = %d", rep.TypeCount)
	}
}

func TestAnalyzeRealPackages(t *testing.T) {
	// The repository's own substrate packages must analyze cleanly and
	// produce plausible metrics.
	rep, err := AnalyzeDirs([]string{
		"../actors", "../stm", "../memdb", "../rvm",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TypeCount < 10 {
		t.Errorf("analyzed only %d types", rep.TypeCount)
	}
	s := rep.Summarize()
	if s.Sum.WMC == 0 || s.Sum.RFC == 0 {
		t.Errorf("implausible summary: %+v", s.Sum)
	}
}

// TestTestFilesNotCounted: a type declared only in a _test.go file is
// not a class the benchmark loads.
func TestTestFilesNotCounted(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"a.go":      "package a\n\ntype Loaded struct{ n int }\n",
		"a_test.go": "package a\n\ntype fixture struct{ n int }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := AnalyzeDirs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TypeCount != 1 || len(rep.Classes) != 1 || rep.Classes[0].Name != "Loaded" {
		t.Errorf("TypeCount %d, classes %+v; want only Loaded", rep.TypeCount, rep.Classes)
	}
}

func TestBadDir(t *testing.T) {
	if _, err := AnalyzeDirs([]string{"/nonexistent-dir-xyz"}); err == nil {
		t.Error("missing directory accepted")
	}
}
