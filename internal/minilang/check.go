package minilang

import "fmt"

// TypeError is a semantic error.
type TypeError struct {
	Line int
	Msg  string
}

func (e *TypeError) Error() string {
	return fmt.Sprintf("minilang:%d: %s", e.Line, e.Msg)
}

func typeErr(line int, format string, args ...any) error {
	return &TypeError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// funcSig is a function's checked signature.
type funcSig struct {
	params []Type
	ret    Type
}

// Builtin function names; user functions cannot shadow them.
var builtins = map[string]bool{
	"newarray": true, "len": true,
	"smap": true, "sfilter": true, "sreduce": true,
}

// Check typechecks the program in place, annotating expression types.
func Check(prog *ProgramAST) error {
	sigs := map[string]funcSig{}
	for _, fn := range prog.Funcs {
		if _, dup := sigs[fn.Name]; dup {
			return typeErr(fn.Line, "function %q redeclared", fn.Name)
		}
		if builtins[fn.Name] {
			return typeErr(fn.Line, "function name %q is reserved", fn.Name)
		}
		sig := funcSig{ret: fn.Ret}
		for _, p := range fn.Params {
			sig.params = append(sig.params, p.Type)
		}
		sigs[fn.Name] = sig
	}

	for _, fn := range prog.Funcs {
		c := &checker{sigs: sigs, fn: fn, vars: map[string]Type{}}
		for _, p := range fn.Params {
			if _, dup := c.vars[p.Name]; dup {
				return typeErr(fn.Line, "parameter %q redeclared", p.Name)
			}
			c.vars[p.Name] = p.Type
		}
		if err := c.block(fn.Body); err != nil {
			return err
		}
	}
	return nil
}

type checker struct {
	sigs map[string]funcSig
	fn   *FuncDecl
	vars map[string]Type
}

func (c *checker) block(b *Block) error {
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt) error {
	switch s := s.(type) {
	case *VarDecl:
		t, err := c.expr(s.Init)
		if err != nil {
			return err
		}
		if t == TypeVoid || t == TypeFunc {
			return typeErr(s.Line, "cannot initialize %q with a %s expression", s.Name, t)
		}
		if _, dup := c.vars[s.Name]; dup {
			return typeErr(s.Line, "variable %q redeclared", s.Name)
		}
		c.vars[s.Name] = t
		return nil
	case *Assign:
		vt, ok := c.vars[s.Name]
		if !ok {
			return typeErr(s.Line, "undefined variable %q", s.Name)
		}
		t, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		if t != vt {
			return typeErr(s.Line, "cannot assign %s to %s variable %q", t, vt, s.Name)
		}
		return nil
	case *If:
		t, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		if t != TypeBool {
			return typeErr(s.Line, "if condition must be bool, got %s", t)
		}
		if err := c.block(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.block(s.Else)
		}
		return nil
	case *While:
		t, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		if t != TypeBool {
			return typeErr(s.Line, "while condition must be bool, got %s", t)
		}
		return c.block(s.Body)
	case *For:
		if err := c.stmt(s.Init); err != nil {
			return err
		}
		t, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		if t != TypeBool {
			return typeErr(s.Line, "for condition must be bool, got %s", t)
		}
		if err := c.block(s.Body); err != nil {
			return err
		}
		return c.stmt(s.Post)
	case *IndexAssign:
		vt, ok := c.vars[s.Name]
		if !ok {
			return typeErr(s.Line, "undefined variable %q", s.Name)
		}
		if vt != TypeArray {
			return typeErr(s.Line, "cannot index %s variable %q", vt, s.Name)
		}
		it, err := c.expr(s.Index)
		if err != nil {
			return err
		}
		if it != TypeInt {
			return typeErr(s.Line, "array index must be int, got %s", it)
		}
		et, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		if et != TypeInt {
			return typeErr(s.Line, "array element must be int, got %s", et)
		}
		return nil
	case *Return:
		if s.Value == nil {
			if c.fn.Ret != TypeVoid {
				return typeErr(s.Line, "function %q must return %s", c.fn.Name, c.fn.Ret)
			}
			return nil
		}
		t, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		if t != c.fn.Ret {
			return typeErr(s.Line, "function %q returns %s, got %s", c.fn.Name, c.fn.Ret, t)
		}
		return nil
	case *ExprStmt:
		_, err := c.expr(s.E)
		return err
	case *Block:
		return c.block(s)
	default:
		return typeErr(0, "unknown statement %T", s)
	}
}

func (c *checker) expr(e Expr) (Type, error) {
	switch e := e.(type) {
	case *IntLit:
		e.T = TypeInt
	case *FloatLit:
		e.T = TypeFloat
	case *BoolLit:
		e.T = TypeBool
	case *VarRef:
		t, ok := c.vars[e.Name]
		if !ok {
			return TypeInvalid, typeErr(e.Line, "undefined variable %q", e.Name)
		}
		e.T = t
	case *Unary:
		st, err := c.expr(e.Sub)
		if err != nil {
			return TypeInvalid, err
		}
		switch e.Op {
		case "-":
			if st != TypeInt && st != TypeFloat {
				return TypeInvalid, typeErr(e.Line, "cannot negate %s", st)
			}
			e.T = st
		case "!":
			if st != TypeBool {
				return TypeInvalid, typeErr(e.Line, "cannot logically negate %s", st)
			}
			e.T = TypeBool
		}
	case *Binary:
		lt, err := c.expr(e.Left)
		if err != nil {
			return TypeInvalid, err
		}
		rt, err := c.expr(e.Right)
		if err != nil {
			return TypeInvalid, err
		}
		switch e.Op {
		case "+", "-", "*", "/", "%":
			if lt != rt || (lt != TypeInt && lt != TypeFloat) {
				return TypeInvalid, typeErr(e.Line, "invalid operands %s %s %s", lt, e.Op, rt)
			}
			if e.Op == "%" && lt != TypeInt {
				return TypeInvalid, typeErr(e.Line, "%% requires int operands")
			}
			e.T = lt
		case "<", "<=", ">", ">=":
			if lt != rt || (lt != TypeInt && lt != TypeFloat) {
				return TypeInvalid, typeErr(e.Line, "invalid comparison %s %s %s", lt, e.Op, rt)
			}
			e.T = TypeBool
		case "==", "!=":
			if lt != rt {
				return TypeInvalid, typeErr(e.Line, "cannot compare %s with %s", lt, rt)
			}
			e.T = TypeBool
		case "&&", "||":
			if lt != TypeBool || rt != TypeBool {
				return TypeInvalid, typeErr(e.Line, "%s requires bool operands", e.Op)
			}
			e.T = TypeBool
		default:
			return TypeInvalid, typeErr(e.Line, "unknown operator %q", e.Op)
		}
	case *IndexExpr:
		at, err := c.expr(e.Arr)
		if err != nil {
			return TypeInvalid, err
		}
		if at != TypeArray {
			return TypeInvalid, typeErr(e.Line, "cannot index %s", at)
		}
		it, err := c.expr(e.Index)
		if err != nil {
			return TypeInvalid, err
		}
		if it != TypeInt {
			return TypeInvalid, typeErr(e.Line, "array index must be int, got %s", it)
		}
		e.T = TypeInt
	case *FuncRef:
		e.T = TypeFunc
	case *Call:
		if builtins[e.Name] {
			return c.builtinCall(e)
		}
		sig, ok := c.sigs[e.Name]
		if !ok {
			return TypeInvalid, typeErr(e.Line, "undefined function %q", e.Name)
		}
		if len(e.Args) != len(sig.params) {
			return TypeInvalid, typeErr(e.Line, "%q expects %d arguments, got %d",
				e.Name, len(sig.params), len(e.Args))
		}
		for i, a := range e.Args {
			at, err := c.expr(a)
			if err != nil {
				return TypeInvalid, err
			}
			if at != sig.params[i] {
				return TypeInvalid, typeErr(e.Line, "argument %d of %q: expected %s, got %s",
					i+1, e.Name, sig.params[i], at)
			}
		}
		e.T = sig.ret
	default:
		return TypeInvalid, typeErr(0, "unknown expression %T", e)
	}
	return e.TypeOf(), nil
}

// builtinCall checks newarray/len/smap/sfilter/sreduce. The stream
// builtins take a declared function by name as their callback; the VarRef
// argument is validated against the required callback signature and
// rewritten into a FuncRef so the code generator emits a method-handle
// push instead of a variable load.
func (c *checker) builtinCall(e *Call) (Type, error) {
	argTypes := func(want ...Type) error {
		if len(e.Args) != len(want) {
			return typeErr(e.Line, "%q expects %d arguments, got %d", e.Name, len(want), len(e.Args))
		}
		for i, a := range e.Args {
			if want[i] == TypeFunc {
				if err := c.funcArg(e, i); err != nil {
					return err
				}
				continue
			}
			at, err := c.expr(a)
			if err != nil {
				return err
			}
			if at != want[i] {
				return typeErr(e.Line, "argument %d of %q: expected %s, got %s", i+1, e.Name, want[i], at)
			}
		}
		return nil
	}
	switch e.Name {
	case "newarray":
		if err := argTypes(TypeInt); err != nil {
			return TypeInvalid, err
		}
		e.T = TypeArray
	case "len":
		if err := argTypes(TypeArray); err != nil {
			return TypeInvalid, err
		}
		e.T = TypeInt
	case "smap", "sfilter":
		if err := argTypes(TypeArray, TypeFunc); err != nil {
			return TypeInvalid, err
		}
		e.T = TypeArray
	case "sreduce":
		if err := argTypes(TypeArray, TypeInt, TypeFunc); err != nil {
			return TypeInvalid, err
		}
		e.T = TypeInt
	}
	return e.T, nil
}

// funcArg validates e.Args[i] as a stream-callback reference and rewrites
// it to a FuncRef.
func (c *checker) funcArg(e *Call, i int) error {
	ref, ok := e.Args[i].(*VarRef)
	if !ok {
		return typeErr(e.Line, "argument %d of %q must name a function", i+1, e.Name)
	}
	sig, ok := c.sigs[ref.Name]
	if !ok {
		return typeErr(ref.Line, "undefined function %q", ref.Name)
	}
	var want funcSig
	switch e.Name {
	case "smap":
		want = funcSig{params: []Type{TypeInt}, ret: TypeInt}
	case "sfilter":
		want = funcSig{params: []Type{TypeInt}, ret: TypeBool}
	case "sreduce":
		want = funcSig{params: []Type{TypeInt, TypeInt}, ret: TypeInt}
	}
	if len(sig.params) != len(want.params) || sig.ret != want.ret {
		return typeErr(ref.Line, "%q callback %q must have signature %s", e.Name, ref.Name, sigString(want))
	}
	for i, p := range sig.params {
		if p != want.params[i] {
			return typeErr(ref.Line, "%q callback %q must have signature %s", e.Name, ref.Name, sigString(want))
		}
	}
	fr := &FuncRef{Name: ref.Name}
	fr.T = TypeFunc
	e.Args[i] = fr
	return nil
}

func sigString(s funcSig) string {
	out := "("
	for i, p := range s.params {
		if i > 0 {
			out += ", "
		}
		out += p.String()
	}
	return out + ") " + s.ret.String()
}
