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

// Lex tokenizes the source.
func Lex(src string) ([]Token, error) {
	// The corpus averages one token per 2.6 source bytes; sizing for one
	// per 2.5 makes regrowth the exception.
	toks := make([]Token, 0, len(src)*2/5+1)
	line, lineStart := int32(1), 0 // lineStart: index of the current line's first byte
	i := 0
	n := len(src)

	for i < n {
		c := src[i]
		col := int32(i-lineStart) + 1
		switch {
		case byteClass[c]&clsSpace != 0:
			i++
			if c == '\n' {
				line++
				lineStart = i
			}
		case c == '/' && i+1 < n && src[i+1] == '/':
			for i < n && src[i] != '\n' {
				i++
			}
		case byteClass[c]&clsLetter != 0:
			start := i
			for i < n && byteClass[src[i]]&(clsLetter|clsDigit) != 0 {
				i++
			}
			text := src[start:i]
			kind := TokIdent
			if keywords[text] {
				kind = TokKeyword
			}
			toks = append(toks, Token{kind, text, line, col})
		case byteClass[c]&clsDigit != 0:
			start := i
			isFloat := false
			for i < n && (byteClass[src[i]]&clsDigit != 0 || src[i] == '.') {
				if src[i] == '.' {
					if isFloat {
						return nil, errAt(line, int32(i-lineStart)+1, "malformed number")
					}
					isFloat = true
				}
				i++
			}
			kind := TokInt
			if isFloat {
				kind = TokFloat
			}
			toks = append(toks, Token{kind, src[start:i], line, col})
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(src[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, errAt(line, col, "invalid UTF-8 byte 0x%02x", c)
			}
			return nil, errAt(line, col, "unexpected character %q", r)
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
					return nil, errAt(line, col, "unexpected character %q", c)
				}
			}
			toks = append(toks, Token{TokOp, src[i : i+width], line, col})
			i += width
		}
	}
	toks = append(toks, Token{TokEOF, "", line, int32(n-lineStart) + 1})
	return toks, nil
}
