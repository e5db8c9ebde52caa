package minilang

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"renaissance/internal/rvm"
)

// lexRegressions have a byte of 0x80 or above (or another character the
// language lacks) where a token must start. Each must give one
// SyntaxError at that byte: classifying bytes as Latin-1 runes would
// split "é" mid-rune into a bogus identifier plus an error one column
// late, and lex a stray 0xFF as the identifier "ÿ".
var lexRegressions = []struct {
	src       string
	line, col int
	msg       string
}{
	{"var é = 1;", 1, 5, `'é'`},
	{"func λ() { }", 1, 6, `'λ'`},
	{"func main() int {\n\tvar café = 1;\n\treturn café;\n}", 2, 9, `'é'`},
	{"var x = \xff;", 1, 9, "0xff"},
	{"var x = 1 \xa9 2;", 1, 11, "0xa9"}, // a continuation byte on its own
	{"func @", 1, 6, `'@'`},
}

func TestLexRejectsNonASCII(t *testing.T) {
	for _, tc := range lexRegressions {
		_, err := Lex(tc.src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("Lex(%q) = %v, want a SyntaxError", tc.src, err)
			continue
		}
		if se.Line != tc.line || se.Col != tc.col || !strings.Contains(se.Msg, tc.msg) {
			t.Errorf("Lex(%q) = %v, want %d:%d mentioning %s", tc.src, se, tc.line, tc.col, tc.msg)
		}
	}
	// Comments are not tokens: they may hold any bytes.
	toks, err := Lex("// héllo λ \xff\nfunc main() int { return 1; }")
	if err != nil {
		t.Fatalf("non-ASCII comment rejected: %v", err)
	}
	if toks[0].Text != "func" || toks[0].Line != 2 || toks[0].Col != 1 {
		t.Errorf("first token after the comment: %+v", toks[0])
	}
}

func TestLexTokens(t *testing.T) {
	toks, err := Lex("x1_ <= 2.5 // c\n  && y")
	if err != nil {
		t.Fatal(err)
	}
	want := []Token{
		{TokIdent, "x1_", 1, 1}, {TokOp, "<=", 1, 5}, {TokFloat, "2.5", 1, 8},
		{TokOp, "&&", 2, 3}, {TokIdent, "y", 2, 6}, {TokEOF, "", 2, 7},
	}
	if !reflect.DeepEqual(toks, want) {
		t.Errorf("tokens = %+v\nwant     %+v", toks, want)
	}
	if size := reflect.TypeOf(Token{}).Size(); size > 32 {
		t.Errorf("Token is %d bytes, want <= 32", size)
	}
}

// FuzzCompile: whatever Compile accepts must run, under a fuel limit, to
// the same result, error and counters on the baseline and the quickened
// interpreter, and nothing on the way may panic.
func FuzzCompile(f *testing.F) {
	for _, src := range Corpus(6) {
		f.Add(src)
	}
	for _, tc := range lexRegressions {
		f.Add(tc.src)
	}
	f.Add("func main() int { var a = newarray(3); a[1] = 7; return a[1] + len(a); }")
	f.Add("func main() int { var a = newarray(2); return a[2]; }")
	f.Add("func f(n int) int { return f(n + 1); } func main() int { return f(0); }")
	f.Add("func main() int { var i = 0; while true { i = i + 1; } return i; }")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Compile(src)
		if err != nil {
			return
		}
		run := func(tier rvm.TierPolicy) (rvm.Value, error, rvm.Counters) {
			vm := rvm.NewInterp(p)
			vm.Tier = tier
			vm.Fuel = 200_000
			vm.MaxDepth = 64
			v, err := vm.Run()
			return v, err, vm.Counters
		}
		v0, e0, c0 := run(rvm.TierBaseline)
		v1, e1, c1 := run(rvm.TierQuick)
		if (e0 == nil) != (e1 == nil) || (e0 != nil && e0.Error() != e1.Error()) {
			t.Fatalf("errors diverged: tier0=%v tier1=%v", e0, e1)
		}
		if e0 == nil && !v0.Equal(v1) {
			t.Fatalf("results diverged: tier0=%v tier1=%v", v0, v1)
		}
		if c0 != c1 {
			t.Fatalf("counters diverged:\n tier0: %+v\n tier1: %+v", c0, c1)
		}
	})
}
