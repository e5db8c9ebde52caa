// Package minilang implements a small statically typed expression language
// with a complete compiler pipeline — lexer, recursive-descent parser,
// type checker, and a code generator targeting RVM bytecode. It plays the
// role of the Dotty Scala compiler in the dotty benchmark (Table 1:
// "data-structures, synchronization" — compiling a source corpus is the
// workload), and it doubles as a human-writable frontend for the RVM used
// by the minijit example.
package minilang

import (
	"fmt"
	"unicode/utf8"
)

// TokKind classifies tokens.
type TokKind uint8

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokInt
	TokFloat
	TokKeyword // func var if else while return true false int float
	TokOp      // operators and punctuation
)

// Token is one lexeme with its source position. Text is a substring of
// the source; Col counts bytes.
type Token struct {
	Kind TokKind
	Text string
	Line int32
	Col  int32
}

var keywords = map[string]bool{
	"func": true, "var": true, "if": true, "else": true,
	"while": true, "for": true, "return": true, "true": true, "false": true,
	"int": true, "float": true, "bool": true, "array": true,
}

// SyntaxError is a lexing or parsing error with position information.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("minilang:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errAt(line, col int32, format string, args ...any) error {
	return &SyntaxError{Line: int(line), Col: int(col), Msg: fmt.Sprintf(format, args...)}
}

// Byte classes. The language is ASCII outside comments: every byte of
// 0x80 and above has class 0 and is rejected where a token must start.
const (
	clsLetter = 1 << iota // a-z A-Z _
	clsDigit
	clsSpace
)

var byteClass = func() (t [256]uint8) {
	for c := 'a'; c <= 'z'; c++ {
		t[c] = clsLetter
		t[c-'a'+'A'] = clsLetter
	}
	t['_'] = clsLetter
	for c := '0'; c <= '9'; c++ {
		t[c] = clsDigit
	}
	for _, c := range " \t\n\r" {
		t[c] = clsSpace
	}
	return t
}()

// Lex tokenizes the whole source; the last token is TokEOF. The parser
// does not use it: it pulls one token at a time from a lexer.
func Lex(src string) ([]Token, error) {
	// The corpus averages one token per 2.6 source bytes; sizing for one
	// per 2.5 makes regrowth the exception.
	toks := make([]Token, 0, len(src)*2/5+1)
	lx := newLexer(src)
	for {
		t := lx.next()
		if lx.err != nil {
			return nil, lx.err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// lexer produces the tokens of one source on demand. It is a small value:
// the parser peeks and backtracks by copying it, which allocates nothing.
type lexer struct {
	src       string
	i         int // index of the next unread byte
	line      int32
	lineStart int   // index of the current line's first byte
	err       error // the first lexing error; next returns TokEOF from there on
}

func newLexer(src string) lexer { return lexer{src: src, line: 1} }

// next returns the next token. At the end of the source, and from the
// first lexing error on (recorded in err), it returns TokEOF.
func (lx *lexer) next() Token {
	src, n, i := lx.src, len(lx.src), lx.i
	for lx.err == nil && i < n {
		c := src[i]
		col := int32(i-lx.lineStart) + 1
		start := i
		switch {
		case byteClass[c]&clsSpace != 0:
			i++
			if c == '\n' {
				lx.line++
				lx.lineStart = i
			}
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case byteClass[c]&clsLetter != 0:
			for i < n && byteClass[src[i]]&(clsLetter|clsDigit) != 0 {
				i++
			}
			lx.i = i
			text := src[start:i]
			if keywords[text] {
				return Token{TokKeyword, text, lx.line, col}
			}
			return Token{TokIdent, text, lx.line, col}
		case byteClass[c]&clsDigit != 0:
			kind := TokInt
			for i < n && (byteClass[src[i]]&clsDigit != 0 || src[i] == '.') {
				if src[i] == '.' {
					if kind == TokFloat {
						return lx.fail(i, errAt(lx.line, int32(i-lx.lineStart)+1, "malformed number"))
					}
					kind = TokFloat
				}
				i++
			}
			lx.i = i
			return Token{kind, src[start:i], lx.line, col}
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(src[i:])
			if r == utf8.RuneError && size == 1 {
				return lx.fail(i, errAt(lx.line, col, "invalid UTF-8 byte 0x%02x", c))
			}
			return lx.fail(i, errAt(lx.line, col, "unexpected character %q", r))
		default:
			width := 1
			if i+1 < n {
				switch src[i : i+2] {
				case "==", "!=", "<=", ">=", "&&", "||":
					width = 2
				}
			}
			if width == 1 {
				switch c {
				case '+', '-', '*', '/', '%', '<', '>', '=', '!', '(', ')', '{', '}', '[', ']', ',', ';':
				default:
					return lx.fail(i, errAt(lx.line, col, "unexpected character %q", c))
				}
			}
			lx.i = i + width
			return Token{TokOp, src[i:lx.i], lx.line, col}
		}
	}
	lx.i = i
	return Token{TokEOF, "", lx.line, int32(i-lx.lineStart) + 1}
}

// fail records err, found at byte i, and returns TokEOF.
func (lx *lexer) fail(i int, err error) Token {
	lx.i, lx.err = i, err
	return Token{TokEOF, "", lx.line, int32(i-lx.lineStart) + 1}
}
