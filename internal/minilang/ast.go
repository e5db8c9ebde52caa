package minilang

// Type is a minilang type.
type Type int

// The language's types. Bool values are represented as ints at runtime
// (matching the RVM's comparison results).
const (
	TypeInvalid Type = iota
	TypeInt
	TypeFloat
	TypeBool
	TypeVoid
	TypeArray // array of int
	TypeFunc  // reference to a declared function (stream callbacks only)
)

func (t Type) String() string {
	switch t {
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	case TypeVoid:
		return "void"
	case TypeArray:
		return "array"
	case TypeFunc:
		return "func"
	default:
		return "invalid"
	}
}

// Program is a parsed compilation unit.
type ProgramAST struct {
	Funcs []*FuncDecl
}

// FuncDecl is one function declaration.
type FuncDecl struct {
	Name   string
	Params []Param
	Ret    Type // TypeVoid when omitted
	Body   *Block
	Line   int
}

// Param is a typed parameter.
type Param struct {
	Name string
	Type Type
}

// Stmt is a statement node.
type Stmt interface{ stmt() }

// Block is a statement list.
type Block struct {
	Stmts []Stmt
}

// VarDecl declares and initializes a local.
type VarDecl struct {
	Name string
	Init Expr
	Line int
}

// Assign updates a local.
type Assign struct {
	Name  string
	Value Expr
	Line  int
}

// If is a conditional with optional else.
type If struct {
	Cond Expr
	Then *Block
	Else *Block // may be nil
	Line int    // of the if keyword
}

// While is a pre-tested loop.
type While struct {
	Cond Expr
	Body *Block
	Line int // of the while keyword
}

// For is a three-part counted loop: `for init; cond; post { body }`.
// The code generator lowers it into the RVM's canonical counted-loop
// shape so the tier-1 quickener can hoist null and bounds checks for
// loops that iterate an array by `len`.
type For struct {
	Init Stmt // *VarDecl or *Assign
	Cond Expr
	Post *Assign
	Body *Block
	Line int
}

// IndexAssign stores into an array element: `a[i] = v;`.
type IndexAssign struct {
	Name  string
	Index Expr
	Value Expr
	Line  int
}

// Return exits the function.
type Return struct {
	Value Expr // nil for void
	Line  int
}

// ExprStmt evaluates an expression for effect.
type ExprStmt struct {
	E Expr
}

func (*Block) stmt()       {}
func (*VarDecl) stmt()     {}
func (*Assign) stmt()      {}
func (*If) stmt()          {}
func (*While) stmt()       {}
func (*For) stmt()         {}
func (*IndexAssign) stmt() {}
func (*Return) stmt()      {}
func (*ExprStmt) stmt()    {}

// Expr is an expression node. Typechecking records each node's type.
type Expr interface {
	expr()
	TypeOf() Type
}

type typed struct{ T Type }

func (t *typed) TypeOf() Type { return t.T }

// IntLit is an integer literal.
type IntLit struct {
	typed
	Value int64
}

// FloatLit is a float literal.
type FloatLit struct {
	typed
	Value float64
}

// BoolLit is true/false.
type BoolLit struct {
	typed
	Value bool
}

// VarRef reads a local or parameter.
type VarRef struct {
	typed
	Name string
	Line int
}

// Binary is a binary operation ("+", "-", "*", "/", "%", comparisons,
// "&&", "||").
type Binary struct {
	typed
	Op          string
	Left, Right Expr
	Line        int
}

// Unary is "-" or "!".
type Unary struct {
	typed
	Op   string
	Sub  Expr
	Line int
}

// Call invokes a declared function or a builtin (newarray, len, smap,
// sfilter, sreduce).
type Call struct {
	typed
	Name string
	Args []Expr
	Line int
}

// IndexExpr reads an array element: `a[i]`.
type IndexExpr struct {
	typed
	Arr   Expr
	Index Expr
	Line  int
}

// FuncRef names a declared function used as a stream callback; the
// checker rewrites the VarRef argument of smap/sfilter/sreduce into this
// node after validating the callee's signature.
type FuncRef struct {
	typed
	Name string
}

func (*IntLit) expr()    {}
func (*FloatLit) expr()  {}
func (*BoolLit) expr()   {}
func (*VarRef) expr()    {}
func (*Binary) expr()    {}
func (*Unary) expr()     {}
func (*Call) expr()      {}
func (*IndexExpr) expr() {}
func (*FuncRef) expr()   {}
