package minilang

import (
	"fmt"

	"renaissance/internal/rvm"
)

// ClassName is the RVM class that holds all compiled minilang functions.
const ClassName = "ML"

// Compile parses, typechecks, and code-generates the source into an RVM
// program. The entry method is the function named "main" when present.
func Compile(src string) (*rvm.Program, error) {
	ast, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(ast); err != nil {
		return nil, err
	}
	return Generate(ast)
}

// Generate lowers a checked AST to RVM bytecode.
func Generate(prog *ProgramAST) (*rvm.Program, error) {
	p := rvm.NewProgram()
	class := rvm.NewClass(ClassName, nil)
	streams := false
	// One instruction buffer, sized exactly, holds the whole unit's code.
	asm := rvm.NewAsm()
	asm.Grow(codeLen(prog))
	for _, fn := range prog.Funcs {
		asm.Reset()
		g := &codegen{asm: asm, slots: map[string]int{}}
		m, err := g.genFunc(fn)
		if err != nil {
			return nil, err
		}
		class.AddMethod(m)
		streams = streams || g.streams
		if fn.Name == "main" {
			p.Entry = m
		}
	}
	if streams {
		for _, m := range streamLib(asm) {
			class.AddMethod(m)
		}
	}
	if err := p.AddClass(class); err != nil {
		return nil, err
	}
	return p, nil
}

type codegen struct {
	asm      *rvm.Asm
	slots    map[string]int
	nextSlot int
	labels   int
	streams  bool // unit uses smap/sfilter/sreduce
}

func (g *codegen) slot(name string) int {
	if s, ok := g.slots[name]; ok {
		return s
	}
	s := g.nextSlot
	g.nextSlot++
	g.slots[name] = s
	return s
}

func (g *codegen) fresh(prefix string) string {
	g.labels++
	return fmt.Sprintf("%s_%d", prefix, g.labels)
}

func (g *codegen) genFunc(fn *FuncDecl) (*rvm.Method, error) {
	for _, p := range fn.Params {
		g.slot(p.Name)
	}
	if err := g.block(fn.Body); err != nil {
		return nil, err
	}
	// Implicit return for void functions (and a safety net for non-void
	// ones whose control flow provably returned already).
	if fn.Ret == TypeVoid {
		g.asm.Op(rvm.OpReturnVoid)
	} else {
		g.asm.ConstInt(0).Op(rvm.OpReturn)
	}
	m, err := g.asm.Build(fn.Name, len(fn.Params))
	if err != nil {
		return nil, err
	}
	// Ensure locals cover all named slots even if only stores touched them.
	if g.nextSlot > m.NLocals {
		m.NLocals = g.nextSlot
	}
	return m, nil
}

func (g *codegen) block(b *Block) error {
	for _, s := range b.Stmts {
		if err := g.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (g *codegen) stmt(s Stmt) error {
	switch s := s.(type) {
	case *VarDecl:
		if err := g.expr(s.Init); err != nil {
			return err
		}
		g.asm.Store(g.slot(s.Name))
	case *Assign:
		if err := g.expr(s.Value); err != nil {
			return err
		}
		g.asm.Store(g.slot(s.Name))
	case *If:
		elseL := g.fresh("else")
		endL := g.fresh("endif")
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		g.asm.Jump(rvm.OpJumpIfNot, elseL)
		if err := g.block(s.Then); err != nil {
			return err
		}
		g.asm.Jump(rvm.OpJump, endL)
		g.asm.Label(elseL)
		if s.Else != nil {
			if err := g.block(s.Else); err != nil {
				return err
			}
		}
		g.asm.Label(endL)
	case *While:
		headL := g.fresh("while")
		endL := g.fresh("endwhile")
		g.asm.Label(headL)
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		g.asm.Jump(rvm.OpJumpIfNot, endL)
		if err := g.block(s.Body); err != nil {
			return err
		}
		g.asm.Jump(rvm.OpJump, headL)
		g.asm.Label(endL)
	case *For:
		// Lower to the canonical counted-loop shape: the init lands
		// directly before the header, the post-increment directly before
		// the backedge, so a `for i = <const>; i < len(a); i = i + <k>`
		// loop matches the tier-1 bounds-check-elimination region.
		if err := g.stmt(s.Init); err != nil {
			return err
		}
		headL := g.fresh("for")
		endL := g.fresh("endfor")
		g.asm.Label(headL)
		if err := g.expr(s.Cond); err != nil {
			return err
		}
		g.asm.Jump(rvm.OpJumpIfNot, endL)
		if err := g.block(s.Body); err != nil {
			return err
		}
		if err := g.stmt(s.Post); err != nil {
			return err
		}
		g.asm.Jump(rvm.OpJump, headL)
		g.asm.Label(endL)
		if idx, arr, ok := canonicalFor(s); ok {
			g.asm.MarkLoop(headL, g.slot(idx), g.slot(arr), true)
		}
	case *IndexAssign:
		g.asm.Load(g.slot(s.Name))
		if err := g.expr(s.Index); err != nil {
			return err
		}
		if err := g.expr(s.Value); err != nil {
			return err
		}
		g.asm.Op(rvm.OpAStore)
	case *Return:
		if s.Value == nil {
			g.asm.Op(rvm.OpReturnVoid)
			return nil
		}
		if err := g.expr(s.Value); err != nil {
			return err
		}
		g.asm.Op(rvm.OpReturn)
	case *ExprStmt:
		if err := g.expr(s.E); err != nil {
			return err
		}
		// Every expression (including void calls, which push null in the
		// RVM's calling convention) leaves exactly one value.
		g.asm.Op(rvm.OpPop)
	case *Block:
		return g.block(s)
	default:
		return fmt.Errorf("minilang: unknown statement %T", s)
	}
	return nil
}

var binOps = map[string]rvm.Opcode{
	"+": rvm.OpAdd, "-": rvm.OpSub, "*": rvm.OpMul, "/": rvm.OpDiv, "%": rvm.OpRem,
	"<": rvm.OpCmpLT, "<=": rvm.OpCmpLE, ">": rvm.OpCmpGT, ">=": rvm.OpCmpGE,
	"==": rvm.OpCmpEQ, "!=": rvm.OpCmpNE,
}

func (g *codegen) expr(e Expr) error {
	switch e := e.(type) {
	case *IntLit:
		g.asm.ConstInt(e.Value)
	case *FloatLit:
		g.asm.ConstFloat(e.Value)
	case *BoolLit:
		v := int64(0)
		if e.Value {
			v = 1
		}
		g.asm.ConstInt(v)
	case *VarRef:
		g.asm.Load(g.slot(e.Name))
	case *Unary:
		if err := g.expr(e.Sub); err != nil {
			return err
		}
		if e.Op == "-" {
			g.asm.Op(rvm.OpNeg)
		} else { // !x == (x == 0)
			g.asm.ConstInt(0).Op(rvm.OpCmpEQ)
		}
	case *Binary:
		switch e.Op {
		case "&&":
			// Short-circuit: if !left, result 0.
			falseL := g.fresh("and_false")
			endL := g.fresh("and_end")
			if err := g.expr(e.Left); err != nil {
				return err
			}
			g.asm.Jump(rvm.OpJumpIfNot, falseL)
			if err := g.expr(e.Right); err != nil {
				return err
			}
			g.asm.Jump(rvm.OpJump, endL)
			g.asm.Label(falseL)
			g.asm.ConstInt(0)
			g.asm.Label(endL)
		case "||":
			trueL := g.fresh("or_true")
			endL := g.fresh("or_end")
			if err := g.expr(e.Left); err != nil {
				return err
			}
			g.asm.Jump(rvm.OpJumpIf, trueL)
			if err := g.expr(e.Right); err != nil {
				return err
			}
			g.asm.Jump(rvm.OpJump, endL)
			g.asm.Label(trueL)
			g.asm.ConstInt(1)
			g.asm.Label(endL)
		default:
			if err := g.expr(e.Left); err != nil {
				return err
			}
			if err := g.expr(e.Right); err != nil {
				return err
			}
			op, ok := binOps[e.Op]
			if !ok {
				return fmt.Errorf("minilang: no opcode for %q", e.Op)
			}
			g.asm.Op(op)
		}
	case *Call:
		if done, err := g.builtinCall(e); done || err != nil {
			return err
		}
		for _, a := range e.Args {
			if err := g.expr(a); err != nil {
				return err
			}
		}
		g.asm.Invoke(rvm.OpInvokeStatic, ClassName+"."+e.Name, len(e.Args))
	case *IndexExpr:
		if err := g.expr(e.Arr); err != nil {
			return err
		}
		if err := g.expr(e.Index); err != nil {
			return err
		}
		g.asm.Op(rvm.OpALoad)
	case *FuncRef:
		// Push a method handle for the named function (JSR 292 bootstrap).
		g.asm.Sym(rvm.OpInvokeDynamic, ClassName+"."+e.Name)
	default:
		return fmt.Errorf("minilang: unknown expression %T", e)
	}
	return nil
}

// builtinCall emits newarray/len inline and lowers the stream builtins to
// calls into the synthesized $smap/$sfilter/$sreduce library methods.
func (g *codegen) builtinCall(e *Call) (bool, error) {
	switch e.Name {
	case "newarray":
		if err := g.expr(e.Args[0]); err != nil {
			return true, err
		}
		g.asm.Op(rvm.OpNewArray)
	case "len":
		if err := g.expr(e.Args[0]); err != nil {
			return true, err
		}
		g.asm.Op(rvm.OpArrayLen)
	case "smap", "sfilter", "sreduce":
		g.streams = true
		for _, a := range e.Args {
			if err := g.expr(a); err != nil {
				return true, err
			}
		}
		g.asm.Invoke(rvm.OpInvokeStatic, ClassName+".$"+e.Name, len(e.Args))
	default:
		return false, nil
	}
	return true, nil
}

// canonicalFor reports whether the loop is `for i = <const >= 0>; i < len(a);
// i = i + <const > 0>`, returning the induction and array variable names so
// the generator can attach LoopInfo metadata for the quickener.
func canonicalFor(s *For) (idx, arr string, ok bool) {
	var name string
	switch init := s.Init.(type) {
	case *VarDecl:
		lit, isLit := init.Init.(*IntLit)
		if !isLit || lit.Value < 0 {
			return "", "", false
		}
		name = init.Name
	case *Assign:
		lit, isLit := init.Value.(*IntLit)
		if !isLit || lit.Value < 0 {
			return "", "", false
		}
		name = init.Name
	default:
		return "", "", false
	}
	cond, isBin := s.Cond.(*Binary)
	if !isBin || cond.Op != "<" {
		return "", "", false
	}
	lv, isVar := cond.Left.(*VarRef)
	if !isVar || lv.Name != name {
		return "", "", false
	}
	lenCall, isCall := cond.Right.(*Call)
	if !isCall || lenCall.Name != "len" || len(lenCall.Args) != 1 {
		return "", "", false
	}
	av, isArrVar := lenCall.Args[0].(*VarRef)
	if !isArrVar {
		return "", "", false
	}
	if s.Post.Name != name {
		return "", "", false
	}
	inc, isInc := s.Post.Value.(*Binary)
	if !isInc || inc.Op != "+" {
		return "", "", false
	}
	pv, okVar := inc.Left.(*VarRef)
	step, okLit := inc.Right.(*IntLit)
	if !okVar || pv.Name != name || !okLit || step.Value <= 0 {
		return "", "", false
	}
	return name, av.Name, true
}

// codeLen returns the number of instructions Generate emits for prog,
// stream library included. It mirrors genFunc, stmt and expr one case
// for one case.
func codeLen(prog *ProgramAST) int {
	var c codeCounter
	for _, fn := range prog.Funcs {
		c.block(fn.Body)
		c.n++ // the implicit return
		if fn.Ret != TypeVoid {
			c.n++ // its zero value
		}
	}
	if c.streams {
		c.n += streamLibLen
	}
	return c.n
}

type codeCounter struct {
	n       int
	streams bool
}

func (c *codeCounter) block(b *Block) {
	for _, s := range b.Stmts {
		c.stmt(s)
	}
}

func (c *codeCounter) stmt(s Stmt) {
	switch s := s.(type) {
	case *VarDecl:
		c.expr(s.Init)
		c.n++
	case *Assign:
		c.expr(s.Value)
		c.n++
	case *If:
		c.expr(s.Cond)
		c.block(s.Then)
		if s.Else != nil {
			c.block(s.Else)
		}
		c.n += 2
	case *While:
		c.expr(s.Cond)
		c.block(s.Body)
		c.n += 2
	case *For:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.block(s.Body)
		c.stmt(s.Post)
		c.n += 2
	case *IndexAssign:
		c.expr(s.Index)
		c.expr(s.Value)
		c.n += 2
	case *Return:
		if s.Value != nil {
			c.expr(s.Value)
		}
		c.n++
	case *ExprStmt:
		c.expr(s.E)
		c.n++
	case *Block:
		c.block(s)
	}
}

func (c *codeCounter) expr(e Expr) {
	c.n++ // every expression ends in one instruction of its own
	switch e := e.(type) {
	case *Unary:
		c.expr(e.Sub)
		if e.Op == "!" {
			c.n++
		}
	case *Binary:
		c.expr(e.Left)
		c.expr(e.Right)
		if e.Op == "&&" || e.Op == "||" {
			c.n += 2
		}
	case *Call:
		switch e.Name {
		case "smap", "sfilter", "sreduce":
			c.streams = true
		}
		for _, a := range e.Args {
			c.expr(a)
		}
	case *IndexExpr:
		c.expr(e.Arr)
		c.expr(e.Index)
	}
}

// streamLibLen is the number of instructions streamLib emits: $smap,
// $sfilter and $sreduce.
const streamLibLen = 26 + 59 + 21

// streamLib synthesizes the stream-pipeline library: each method is the
// canonical counted array loop (with LoopInfo metadata) applying a method
// handle per element, so both the tier-1 quickener and the rvm/opt
// stream-fusion pass can recognize and optimize the shape.
func streamLib(a *rvm.Asm) []*rvm.Method {
	// $smap(arr, h): out[i] = h(arr[i])
	a.Reset()
	a.Load(0).Op(rvm.OpArrayLen).Op(rvm.OpNewArray).Store(2)
	a.ConstInt(0).Store(3)
	a.Label("head")
	a.Load(3).Load(0).Op(rvm.OpArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(2).Load(3)
	a.Load(1).Load(0).Load(3).Op(rvm.OpALoad)
	a.Invoke(rvm.OpInvokeHandle, "", 1)
	a.Op(rvm.OpAStore)
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(2).Op(rvm.OpReturn)
	a.MarkLoop("head", 3, 0, true)
	smap := a.MustBuild("$smap", 2)

	// $sfilter(arr, h): two passes — count matches, then fill exact-size out.
	a.Reset()
	a.ConstInt(0).Store(2) // cnt
	a.ConstInt(0).Store(3) // i
	a.Label("head1")
	a.Load(3).Load(0).Op(rvm.OpArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "mid")
	a.Load(1).Load(0).Load(3).Op(rvm.OpALoad).Invoke(rvm.OpInvokeHandle, "", 1)
	a.Jump(rvm.OpJumpIfNot, "skip1")
	a.Load(2).ConstInt(1).Op(rvm.OpAdd).Store(2)
	a.Label("skip1")
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head1")
	a.Label("mid")
	a.Load(2).Op(rvm.OpNewArray).Store(4) // out
	a.ConstInt(0).Store(5)                // j
	a.ConstInt(0).Store(3)
	a.Label("head2")
	a.Load(3).Load(0).Op(rvm.OpArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(0).Load(3).Op(rvm.OpALoad).Store(6) // tmp
	a.Load(1).Load(6).Invoke(rvm.OpInvokeHandle, "", 1)
	a.Jump(rvm.OpJumpIfNot, "skip2")
	a.Load(4).Load(5).Load(6).Op(rvm.OpAStore)
	a.Load(5).ConstInt(1).Op(rvm.OpAdd).Store(5)
	a.Label("skip2")
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head2")
	a.Label("exit")
	a.Load(4).Op(rvm.OpReturn)
	a.MarkLoop("head1", 3, 0, true)
	a.MarkLoop("head2", 3, 0, true)
	sfilter := a.MustBuild("$sfilter", 2)

	// $sreduce(arr, acc, h): acc = h(acc, arr[i])
	a.Reset()
	a.ConstInt(0).Store(3)
	a.Label("head")
	a.Load(3).Load(0).Op(rvm.OpArrayLen).Op(rvm.OpCmpLT).Jump(rvm.OpJumpIfNot, "exit")
	a.Load(2).Load(1).Load(0).Load(3).Op(rvm.OpALoad)
	a.Invoke(rvm.OpInvokeHandle, "", 2)
	a.Store(1)
	a.Load(3).ConstInt(1).Op(rvm.OpAdd).Store(3)
	a.Jump(rvm.OpJump, "head")
	a.Label("exit")
	a.Load(1).Op(rvm.OpReturn)
	a.MarkLoop("head", 3, 0, true)
	sreduce := a.MustBuild("$sreduce", 3)

	return []*rvm.Method{smap, sfilter, sreduce}
}
