package ir

import "fmt"

// Expr is a side-effect-free IR expression. Expressions never touch the
// shared heap: every heap access is an explicit Read or Write statement so
// that the tracer observes each access exactly once.
type Expr interface {
	// Locals appends the names of local variables the expression reads
	// into set. Used by the dependence analysis.
	Locals(set map[string]bool)
	String() string
}

// Const is a literal value.
type Const struct{ V Value }

// Local reads a local (frame) variable. Reading an unbound local yields
// null, mirroring uninitialized references in the subject systems.
type Local struct{ Name string }

// BinOp enumerates binary operators.
type BinOp uint8

// Binary operators.
const (
	OpAdd BinOp = iota // int addition / string concatenation
	OpSub
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var binOpNames = map[BinOp]string{
	OpAdd: "+", OpSub: "-", OpEq: "==", OpNe: "!=", OpLt: "<",
	OpLe: "<=", OpGt: ">", OpGe: ">=", OpAnd: "&&", OpOr: "||",
}

// Bin applies a binary operator.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// Not negates the truthiness of its operand.
type Not struct{ E Expr }

// IsNullE tests whether its operand is null.
type IsNullE struct{ E Expr }

// SelfNode evaluates to the executing node's name (a string). Subject
// systems use it to identify themselves in messages.
type SelfNode struct{}

func (Const) Locals(map[string]bool)         {}
func (e Local) Locals(set map[string]bool)   { set[e.Name] = true }
func (e Bin) Locals(set map[string]bool)     { e.L.Locals(set); e.R.Locals(set) }
func (e Not) Locals(set map[string]bool)     { e.E.Locals(set) }
func (e IsNullE) Locals(set map[string]bool) { e.E.Locals(set) }
func (SelfNode) Locals(map[string]bool)      {}

func (e Const) String() string   { return e.V.String() }
func (e Local) String() string   { return e.Name }
func (e Bin) String() string     { return fmt.Sprintf("(%s %s %s)", e.L, binOpNames[e.Op], e.R) }
func (e Not) String() string     { return fmt.Sprintf("!%s", e.E) }
func (e IsNullE) String() string { return fmt.Sprintf("isnull(%s)", e.E) }
func (SelfNode) String() string  { return "self()" }

// Convenience constructors, used pervasively by the subject systems.

// I wraps an integer literal.
func I(i int64) Expr { return Const{IntV(i)} }

// S wraps a string literal.
func S(s string) Expr { return Const{StrV(s)} }

// B wraps a boolean literal.
func B(b bool) Expr { return Const{BoolV(b)} }

// NullE is the null literal.
func NullE() Expr { return Const{Null()} }

// L references a local variable.
func L(name string) Expr { return Local{name} }

// Self references the executing node's name.
func Self() Expr { return SelfNode{} }

// Eq builds l == r.
func Eq(l, r Expr) Expr { return Bin{OpEq, l, r} }

// Lt builds l < r.
func Lt(l, r Expr) Expr { return Bin{OpLt, l, r} }

// Ge builds l >= r.
func Ge(l, r Expr) Expr { return Bin{OpGe, l, r} }

// Add builds l + r (integer addition or string concatenation).
func Add(l, r Expr) Expr { return Bin{OpAdd, l, r} }

// And builds l && r.
func And(l, r Expr) Expr { return Bin{OpAnd, l, r} }

// NotE builds !e.
func NotE(e Expr) Expr { return Not{e} }

// IsNull builds isnull(e).
func IsNull(e Expr) Expr { return IsNullE{e} }

// Cat concatenates any number of expressions as strings.
func Cat(parts ...Expr) Expr {
	if len(parts) == 0 {
		return S("")
	}
	e := parts[0]
	for _, p := range parts[1:] {
		e = Bin{OpAdd, forceStr(e), forceStr(p)}
	}
	return e
}

// forceStr keeps Cat readable; actual coercion happens at evaluation time
// (OpAdd on mixed operands concatenates their String forms).
func forceStr(e Expr) Expr { return e }

// ExprLocals returns the sorted-insertion set of locals used by e (nil-safe).
func ExprLocals(e Expr) map[string]bool {
	set := map[string]bool{}
	if e != nil {
		e.Locals(set)
	}
	return set
}
