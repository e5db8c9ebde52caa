package minilang

import "strconv"

// Parse parses a compilation unit. The parser pulls tokens from a lexer one
// at a time; a lexing error anywhere in the source wins over a parse error
// before it, as if the whole source had been lexed first.
func Parse(src string) (*ProgramAST, error) {
	p := &parser{lx: newLexer(src)}
	p.advance()
	prog, err := p.program()
	if err != nil && p.lx.err == nil {
		for p.lx.next().Kind != TokEOF {
		}
	}
	if p.lx.err != nil {
		return nil, p.lx.err
	}
	return prog, err
}

// parser is a recursive-descent parser over a lexer. It is a plain value:
// copying it saves the position to peek at or backtrack to.
type parser struct {
	lx  lexer
	tok Token // the current token
}

func (p *parser) advance()    { p.tok = p.lx.next() }
func (p *parser) cur() Token  { return p.tok }
func (p *parser) next() Token { t := p.tok; p.advance(); return t }

// peek returns the token after the current one.
func (p *parser) peek() Token {
	lx := p.lx
	return lx.next()
}

func (p *parser) at(kind TokKind, text string) bool {
	return p.tok.Kind == kind && (text == "" || p.tok.Text == text)
}

func (p *parser) accept(kind TokKind, text string) bool {
	if p.at(kind, text) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) program() (*ProgramAST, error) {
	prog := &ProgramAST{}
	for !p.at(TokEOF, "") {
		fn, err := p.funcDecl()
		if err != nil {
			return nil, err
		}
		prog.Funcs = append(prog.Funcs, fn)
	}
	return prog, nil
}

func (p *parser) expect(kind TokKind, text string) (Token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = "identifier"
		}
		return t, errAt(t.Line, t.Col, "expected %q, found %q", want, t.Text)
	}
	p.advance()
	return t, nil
}

func (p *parser) typeName() (Type, error) {
	t := p.cur()
	switch {
	case p.accept(TokKeyword, "int"):
		return TypeInt, nil
	case p.accept(TokKeyword, "float"):
		return TypeFloat, nil
	case p.accept(TokKeyword, "bool"):
		return TypeBool, nil
	case p.accept(TokKeyword, "array"):
		return TypeArray, nil
	}
	return TypeInvalid, errAt(t.Line, t.Col, "expected type, found %q", t.Text)
}

func (p *parser) funcDecl() (*FuncDecl, error) {
	kw, err := p.expect(TokKeyword, "func")
	if err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	fn := &FuncDecl{Name: name.Text, Ret: TypeVoid, Line: int(kw.Line)}
	for !p.at(TokOp, ")") {
		if len(fn.Params) > 0 {
			if _, err := p.expect(TokOp, ","); err != nil {
				return nil, err
			}
		}
		pname, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		ptype, err := p.typeName()
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, Param{pname.Text, ptype})
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	if p.at(TokKeyword, "int") || p.at(TokKeyword, "float") || p.at(TokKeyword, "bool") || p.at(TokKeyword, "array") {
		fn.Ret, _ = p.typeName()
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) block() (*Block, error) {
	if _, err := p.expect(TokOp, "{"); err != nil {
		return nil, err
	}
	b := &Block{}
	for !p.at(TokOp, "}") {
		if p.at(TokEOF, "") {
			t := p.cur()
			return nil, errAt(t.Line, t.Col, "unterminated block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.advance() // consume }
	return b, nil
}

func (p *parser) stmt() (Stmt, error) {
	t := p.cur()
	var after Token // the token after an identifier decides between the assignment forms
	if t.Kind == TokIdent {
		after = p.peek()
	}
	switch {
	case p.accept(TokKeyword, "var"):
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		return &VarDecl{Name: name.Text, Init: init, Line: int(name.Line)}, nil

	case p.accept(TokKeyword, "if"):
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		then, err := p.block()
		if err != nil {
			return nil, err
		}
		var els *Block
		if p.accept(TokKeyword, "else") {
			els, err = p.block()
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els, Line: int(t.Line)}, nil

	case p.accept(TokKeyword, "while"):
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, Line: int(t.Line)}, nil

	case p.accept(TokKeyword, "for"):
		init, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		post, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		postAssign, ok := post.(*Assign)
		if !ok {
			return nil, errAt(t.Line, t.Col, "for post-statement must be an assignment")
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &For{Init: init, Cond: cond, Post: postAssign, Body: body, Line: int(t.Line)}, nil

	case p.accept(TokKeyword, "return"):
		r := &Return{Line: int(t.Line)}
		if !p.at(TokOp, ";") {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			r.Value = v
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		return r, nil

	case after.Kind == TokOp && after.Text == "=":
		name := p.next()
		p.advance() // =
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		return &Assign{Name: name.Text, Value: v, Line: int(name.Line)}, nil

	case after.Kind == TokOp && after.Text == "[":
		// Could be `a[i] = v;` or an expression statement starting with an
		// index read; try the assignment shape first.
		save := *p
		name := p.next()
		p.advance() // [
		idx, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "]"); err != nil {
			return nil, err
		}
		if !p.accept(TokOp, "=") {
			*p = save // expression statement: reparse from the start
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, ";"); err != nil {
				return nil, err
			}
			return &ExprStmt{E: e}, nil
		}
		v, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		return &IndexAssign{Name: name.Text, Index: idx, Value: v, Line: int(name.Line)}, nil

	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ";"); err != nil {
			return nil, err
		}
		return &ExprStmt{E: e}, nil
	}
}

// simpleStmt parses the semicolon-free statements allowed in for-loop
// init and post positions: `var x = e` or `x = e`.
func (p *parser) simpleStmt() (Stmt, error) {
	t := p.cur()
	if p.accept(TokKeyword, "var") {
		name, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, "="); err != nil {
			return nil, err
		}
		init, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &VarDecl{Name: name.Text, Init: init, Line: int(name.Line)}, nil
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, errAt(t.Line, t.Col, "expected assignment, found %q", t.Text)
	}
	if _, err := p.expect(TokOp, "="); err != nil {
		return nil, err
	}
	v, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &Assign{Name: name.Text, Value: v, Line: int(name.Line)}, nil
}

// Operator precedence climbing.
var precedence = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3, "<": 4, "<=": 4, ">": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *parser) expr() (Expr, error) { return p.binExpr(1) }

func (p *parser) binExpr(minPrec int) (Expr, error) {
	left, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.Kind != TokOp {
			return left, nil
		}
		prec, isOp := precedence[t.Text]
		if !isOp || prec < minPrec {
			return left, nil
		}
		p.advance()
		right, err := p.binExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		left = &Binary{Op: t.Text, Left: left, Right: right, Line: int(t.Line)}
	}
}

func (p *parser) unary() (Expr, error) {
	t := p.cur()
	if t.Kind == TokOp && (t.Text == "-" || t.Text == "!") {
		p.advance()
		sub, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &Unary{Op: t.Text, Sub: sub, Line: int(t.Line)}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokInt:
		p.advance()
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad integer %q", t.Text)
		}
		return &IntLit{Value: v}, nil
	case t.Kind == TokFloat:
		p.advance()
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, errAt(t.Line, t.Col, "bad float %q", t.Text)
		}
		return &FloatLit{Value: v}, nil
	case p.accept(TokKeyword, "true"):
		return &BoolLit{Value: true}, nil
	case p.accept(TokKeyword, "false"):
		return &BoolLit{Value: false}, nil
	case p.accept(TokOp, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.Kind == TokIdent:
		p.advance()
		var e Expr
		if p.accept(TokOp, "(") {
			call := &Call{Name: t.Text, Line: int(t.Line)}
			for !p.at(TokOp, ")") {
				if len(call.Args) > 0 {
					if _, err := p.expect(TokOp, ","); err != nil {
						return nil, err
					}
				}
				a, err := p.expr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			p.advance() // )
			e = call
		} else {
			e = &VarRef{Name: t.Text, Line: int(t.Line)}
		}
		for p.accept(TokOp, "[") {
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokOp, "]"); err != nil {
				return nil, err
			}
			e = &IndexExpr{Arr: e, Index: idx, Line: int(t.Line)}
		}
		return e, nil
	default:
		return nil, errAt(t.Line, t.Col, "unexpected token %q", t.Text)
	}
}
