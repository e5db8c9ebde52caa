package minilang

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

// corpusCodeSHA256 fingerprints the bytecode the front end generates for
// Corpus(48): every method's name, arity, locals, instructions and loop
// metadata. The streaming lexer and the single instruction buffer must
// not change a single instruction.
const corpusCodeSHA256 = "29561d14fa0dea37d7b5d91a722fb1ede4d70a6ad911cf196e3be01ffa699d42"

func TestCorpusCodeGolden(t *testing.T) {
	h := sha256.New()
	for i, src := range Corpus(48) {
		p, err := Compile(src)
		if err != nil {
			t.Fatalf("unit %d: %v", i, err)
		}
		for _, m := range p.Methods() {
			fmt.Fprintf(h, "%s %d %d\n", m.QualifiedName(), m.NArgs, m.NLocals)
			for _, in := range m.Code {
				fmt.Fprintf(h, "%d %d %d %x %q\n", in.Op, in.A, in.I, math.Float64bits(in.F), in.S)
			}
			for _, l := range m.Loops {
				fmt.Fprintf(h, "loop %d %d %d %t\n", l.Head, l.IdxSlot, l.ArrSlot, l.InitNonNeg)
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != corpusCodeSHA256 {
		t.Errorf("corpus bytecode hash = %s, want %s", got, corpusCodeSHA256)
	}
}

// syntaxErrors pins the position and message of every syntax error the
// tests provoke. A lexing error anywhere in the source is reported even
// when a parse error comes before it ("func 1 @"), as when the whole
// source was lexed before parsing.
var syntaxErrors = []struct {
	src       string
	line, col int
	msg       string
}{
	{"func { }", 1, 6, `expected "identifier", found "{"`},
	{"func f( { }", 1, 9, `expected "identifier", found "{"`},
	{"func f() int { return 1 }", 1, 25, `expected ";", found "}"`},
	{"func f() int { if x { return 1; }", 1, 34, "unterminated block"},
	{"func f() int { return (1; }", 1, 25, `expected ")", found ";"`},
	{"1.2.3", 1, 4, "malformed number"},
	{"func @", 1, 6, "unexpected character '@'"},
	{"func 1 @", 1, 8, "unexpected character '@'"},
	{"func f() { a[0] b; } \xff", 1, 22, "invalid UTF-8 byte 0xff"},
	// a[i] starts either an element assignment or an expression
	// statement; the parser tries the first and backtracks to the second.
	{"func f() { a[1] + ; }", 1, 19, `unexpected token ";"`},
	{"func f() { a[1 ; }", 1, 16, `expected "]", found ";"`},
	{"func f() { a[1] }", 1, 17, `expected ";", found "}"`},
	{"func f() { a[0] = ; }", 1, 19, `unexpected token ";"`},
	{"func f() { a[", 1, 14, `unexpected token ""`},
	{"func f() { if 1 { } else { 3 } }", 1, 30, `expected ";", found "}"`},
	// An identifier is the last token: the statement parser's one-token
	// look-ahead reads EOF.
	{"func main() int { return x", 1, 27, `expected ";", found ""`},
	{"func f() { x", 1, 13, `expected ";", found ""`},
	{"func f() { x\n", 2, 1, `expected ";", found ""`},
}

func TestSyntaxErrorPositions(t *testing.T) {
	check := func(src string, err error, line, col int, msg string) {
		t.Helper()
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("Parse(%q) = %v, want a SyntaxError", src, err)
			return
		}
		if se.Line != line || se.Col != col || se.Msg != msg {
			t.Errorf("Parse(%q) = %d:%d %q, want %d:%d %q", src, se.Line, se.Col, se.Msg, line, col, msg)
		}
	}
	for _, tc := range syntaxErrors {
		_, err := Parse(tc.src)
		check(tc.src, err, tc.line, tc.col, tc.msg)
	}
	for _, tc := range lexRegressions {
		_, err := Parse(tc.src)
		_, lexErr := Lex(tc.src)
		var se *SyntaxError
		if errors.As(lexErr, &se) {
			check(tc.src, err, se.Line, se.Col, se.Msg)
		}
	}
	// The backtracking expression statement parses.
	if _, err := Compile("func main() int { var a = newarray(2); a[0]; return a[1]; }"); err != nil {
		t.Errorf("a[i] as an expression statement: %v", err)
	}
}

// The condition of an if, a while and a for reports the line of its
// keyword when it is not bool.
func TestConditionTypeErrorLines(t *testing.T) {
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"func f() int {\n\tif 3 { return 1; }\n\treturn 0;\n}", 2},
		{"func f() int {\n\tvar x = 0;\n\twhile 1.0 { x = 1; }\n\treturn x;\n}", 3},
		{"func f() int {\n\n\n\tfor var i = 0; i; i = i + 1 { }\n\treturn 0;\n}", 4},
		{"func f() int {\n\tif true {\n\t\twhile true {\n\t\t\tif 1 { }\n\t\t}\n\t}\n\treturn 0;\n}", 4},
	} {
		ast, err := Parse(tc.src)
		if err != nil {
			t.Fatalf("%q: %v", tc.src, err)
		}
		var te *TypeError
		if err := Check(ast); !errors.As(err, &te) {
			t.Errorf("%q: Check = %v, want a TypeError", tc.src, err)
		} else if te.Line != tc.line {
			t.Errorf("%q: TypeError at line %d, want %d (%v)", tc.src, te.Line, tc.line, te)
		}
	}
}

// codeLen sizes the unit's instruction buffer, so it must count exactly
// what Generate emits.
func TestCodeLenIsExact(t *testing.T) {
	srcs := append(Corpus(6),
		`func f(a int, b bool) bool { return !b || a > 1 && -a < 0; }
func g() { var x = 1.5; x = -x; }
func main() int { g(); if f(1, true) { return 1; } else { return 2; } }`,
	)
	for _, src := range srcs {
		ast, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := Check(ast); err != nil {
			t.Fatal(err)
		}
		p, err := Generate(ast)
		if err != nil {
			t.Fatal(err)
		}
		emitted := 0
		for _, m := range p.Methods() {
			emitted += len(m.Code)
		}
		if want := codeLen(ast); want != emitted {
			t.Errorf("codeLen = %d, Generate emitted %d for\n%s", want, emitted, src)
		}
	}
}

// dotty compiles units on several goroutines at once. Each compilation
// owns its lexer, parser and instruction buffer, so concurrent compiles
// produce exactly the serial bytecode, and the race detector sees no
// shared buffer.
func TestConcurrentCompile(t *testing.T) {
	corpus := Corpus(8)
	dump := func(src string) string {
		p, err := Compile(src)
		if err != nil {
			return err.Error()
		}
		var out string
		for _, m := range p.Methods() {
			out += fmt.Sprintf("%s %d %v %v\n", m.QualifiedName(), m.NLocals, m.Code, m.Loops)
		}
		return out
	}
	want := make([]string, len(corpus))
	for i, src := range corpus {
		want[i] = dump(src)
	}
	got := make([][]string, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, src := range corpus {
				got[g] = append(got[g], dump(src))
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i := range corpus {
			if got[g][i] != want[i] {
				t.Errorf("goroutine %d, unit %d: concurrent compile differs from the serial one", g, i)
			}
		}
	}
}
