package minilang

import (
	"runtime"
	"testing"
)

// bytesPerRun is testing.AllocsPerRun for bytes: the heap bytes one call of
// f allocates, averaged over runs calls after one warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// The front end allocates the AST and the unit's bytecode, and little
// besides. Per corpus unit, parsing allocates about 9.3 KB: the AST, with
// tokens pulled from the lexer one at a time (a token slice for the whole
// source took it to 21.7 KB). Generating allocates about 14.8 KB: the
// unit's code in one exact-size buffer, plus the methods and label maps
// (a growing buffer copied out per method took it to 22.6 KB).
func TestCompileBytesGates(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are perturbed by the race detector")
	}
	corpus := Corpus(24)
	var parse, generate float64
	for _, src := range corpus {
		parse += bytesPerRun(20, func() {
			if _, err := Parse(src); err != nil {
				t.Fatal(err)
			}
		})
		ast, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(ast); err != nil {
			t.Fatal(err)
		}
		generate += bytesPerRun(20, func() {
			if _, err := Generate(ast); err != nil {
				t.Fatal(err)
			}
		})
	}
	parse /= float64(len(corpus))
	generate /= float64(len(corpus))
	t.Logf("per corpus unit: Parse %.0f bytes, Generate %.0f bytes", parse, generate)
	if parse > 12_000 {
		t.Errorf("Parse allocates %.0f bytes per corpus unit, want <= 12000", parse)
	}
	if generate > 17_000 {
		t.Errorf("Generate allocates %.0f bytes per corpus unit, want <= 17000", generate)
	}
}
