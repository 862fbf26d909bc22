package xq

import (
	"fmt"
	"strings"
)

// Expr is a parsed expression tree node. String renders source-like text
// for diagnostics and for inspecting translations.
type Expr interface {
	String() string
}

// Literal is a constant: string, number, dateTime, duration or boolean.
// Build one with NewLiteral.
type Literal struct {
	Val Item
	// seq is Val as the one-item sequence every evaluation returns, built
	// once: its capacity is its length, so an append to it reallocates, and
	// it is never written, since no evaluator writes into a sequence it was
	// handed.
	seq Sequence
}

// NewLiteral returns the literal of v.
func NewLiteral(v Item) *Literal { return &Literal{Val: v, seq: Sequence{v}} }

func (e *Literal) String() string {
	if s, ok := e.Val.(string); ok {
		return `"` + s + `"`
	}
	return StringValue(e.Val)
}

// VarRef is $name.
type VarRef struct{ Name string }

func (e *VarRef) String() string { return "$" + e.Name }

// ContextItem is the "." expression.
type ContextItem struct{}

func (e *ContextItem) String() string { return "." }

// SeqExpr is a comma sequence (a, b, c); it concatenates results.
type SeqExpr struct{ Items []Expr }

func (e *SeqExpr) String() string {
	parts := make([]string, len(e.Items))
	for i, it := range e.Items {
		parts[i] = it.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Axis of a path step.
type Axis uint8

const (
	// AxisChild selects element children (e/A).
	AxisChild Axis = iota
	// AxisDescendant selects descendants at any depth (e//A).
	AxisDescendant
	// AxisAttribute selects attributes (e/@A).
	AxisAttribute
	// AxisSelf selects the context node itself when it matches (e/.).
	AxisSelf
)

// Step is one path step with optional predicates.
type Step struct {
	Axis  Axis
	Name  string // name test; "*" matches any element; "text()" selects text
	Preds []Expr
}

func (s Step) String() string {
	var b strings.Builder
	if s.Axis == AxisAttribute {
		b.WriteString("@")
	}
	if s.Axis == AxisSelf {
		b.WriteString(".")
	} else {
		b.WriteString(s.Name)
	}
	for _, p := range s.Preds {
		fmt.Fprintf(&b, "[%s]", p.String())
	}
	return b.String()
}

// Path is base/step/step…; a nil Base means the step begins at the
// context item.
type Path struct {
	Base  Expr
	Steps []Step
}

func (e *Path) String() string {
	var b strings.Builder
	if e.Base != nil {
		b.WriteString(e.Base.String())
	}
	for i, s := range e.Steps {
		sep := "/"
		if s.Axis == AxisDescendant {
			sep = "//"
		} else if e.Base == nil && i == 0 {
			sep = "" // relative path: first step has no leading slash
		}
		b.WriteString(sep)
		b.WriteString(s.String())
	}
	return b.String()
}

// Filter applies predicates to an arbitrary primary expression: e[pred].
type Filter struct {
	Base  Expr
	Preds []Expr
}

func (e *Filter) String() string {
	var b strings.Builder
	if _, isPath := e.Base.(*Path); isPath {
		// parenthesize so the predicates read as whole-sequence filters,
		// not as predicates on the path's last step
		fmt.Fprintf(&b, "(%s)", e.Base.String())
	} else {
		b.WriteString(e.Base.String())
	}
	for _, p := range e.Preds {
		fmt.Fprintf(&b, "[%s]", p.String())
	}
	return b.String()
}

// BinOp is a binary operator application.
type BinOp struct {
	Op   string // "or" "and" "=" "!=" "<" "<=" ">" ">=" "eq".."ge" "+" "-" "*" "div" "idiv" "mod" "before" "after" "meets" "overlaps" "during"
	L, R Expr
}

func (e *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L.String(), e.Op, e.R.String())
}

// Boolean reports that the operator's value is a boolean, never a number:
// a comparison, a conjunction or a disjunction.
func (e *BinOp) Boolean() bool {
	switch e.Op {
	case "or", "and", "=", "!=", "<", "<=", ">", ">=":
		return true
	}
	return cmpNames[e.Op]
}

// Unary is numeric negation.
type Unary struct{ E Expr }

func (e *Unary) String() string { return "-" + e.E.String() }

// If is if (cond) then a else b.
type If struct{ Cond, Then, Else Expr }

func (e *If) String() string {
	return fmt.Sprintf("if (%s) then %s else %s", e.Cond.String(), e.Then.String(), e.Else.String())
}

// ForClause binds Var (and optionally the 1-based position var PosVar) to
// each item of In.
type ForClause struct {
	Var    string
	PosVar string // "" when absent
	In     Expr
	// Ahead, when set, reads ahead for the clause's body (ReadAhead). The
	// clause's text does not show it: it changes how the body's reads are
	// made, never what they return.
	Ahead ReadAhead
}

// ReadAhead reads ahead for a for clause: Begin is handed the clause's
// whole sequence, when it has more than one item, before the clause binds
// the first, so that what the clause's body reads of each item can be read
// for all of them at once. What Begin returns rides on every binding the
// clause makes, and a function the body calls finds it again through
// Context.Ahead; nil rides on none. End is handed what Begin returned once
// no binding of the clause is evaluated any more — after the clause's last
// binding, or, in a FLWOR with an order by, once its last return ran — a
// budget trip's panic included, so that Begin's scratch can be given back.
type ReadAhead interface {
	Begin(ctx *Context, seq Sequence) any
	End(ctx *Context, ahead any)
}

// LetClause binds Var to the whole sequence of E.
type LetClause struct {
	Var string
	E   Expr
}

// OrderSpec is one "order by" key.
type OrderSpec struct {
	Key        Expr
	Descending bool
}

// FLWOR is the for/let/where/order by/return expression. Clauses holds
// ForClause and LetClause values in source order.
type FLWOR struct {
	Clauses []any // ForClause | LetClause
	Where   Expr  // nil when absent
	OrderBy []OrderSpec
	Return  Expr
}

func (e *FLWOR) String() string {
	var b strings.Builder
	for _, c := range e.Clauses {
		switch cl := c.(type) {
		case ForClause:
			fmt.Fprintf(&b, "for $%s ", cl.Var)
			if cl.PosVar != "" {
				fmt.Fprintf(&b, "at $%s ", cl.PosVar)
			}
			fmt.Fprintf(&b, "in %s ", cl.In.String())
		case LetClause:
			fmt.Fprintf(&b, "let $%s := %s ", cl.Var, cl.E.String())
		}
	}
	if e.Where != nil {
		fmt.Fprintf(&b, "where %s ", e.Where.String())
	}
	for i, o := range e.OrderBy {
		if i == 0 {
			b.WriteString("order by ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString(o.Key.String())
		if o.Descending {
			b.WriteString(" descending")
		}
		b.WriteString(" ")
	}
	fmt.Fprintf(&b, "return %s", e.Return.String())
	return b.String()
}

// Quantified is some/every $v in e satisfies cond.
type Quantified struct {
	Every     bool
	Var       string
	In        Expr
	Satisfies Expr
}

func (e *Quantified) String() string {
	kw := "some"
	if e.Every {
		kw = "every"
	}
	return fmt.Sprintf("%s $%s in %s satisfies %s", kw, e.Var, e.In.String(), e.Satisfies.String())
}

// Call is a function application. Callee, when set, is what a host
// compiled the call into: the evaluator hands it the evaluated Args instead
// of looking Name up, and the call spells it after them.
type Call struct {
	Name   string
	Args   []Expr
	Callee Callee
}

// Callee is a call a host compiled. Call evaluates it over its Args'
// values; String spells the operands it holds beyond them, "" for none.
// AppendCall appends the value to a sequence its caller lends — a for
// clause's sequence, an operand read and dropped —, so that it builds no
// sequence of its own: it returns dst with the value appended, in dst's
// array or one grown from it, never a sequence the callee holds, and
// charges what Call charges.
type Callee interface {
	Call(ctx *Context, args []Sequence) (Sequence, error)
	AppendCall(dst Sequence, ctx *Context, args []Sequence) (Sequence, error)
	String() string
}

func (e *Call) String() string {
	parts := make([]string, len(e.Args), len(e.Args)+1)
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	if e.Callee != nil {
		if s := e.Callee.String(); s != "" {
			parts = append(parts, s)
		}
	}
	return e.Name + "(" + strings.Join(parts, ", ") + ")"
}

// AttrCtor is an attribute constructor: either from a direct constructor
// (name="literal{expr}parts") or computed (attribute name {expr}).
type AttrCtor struct {
	Name  string
	Parts []Expr // literal strings and embedded expressions, concatenated
}

// ElemCtor constructs an element. NameExpr is non-nil for computed
// constructors (element {nameExpr} {...}); otherwise Name is the literal
// tag.
type ElemCtor struct {
	Name     string
	NameExpr Expr
	Attrs    []AttrCtor
	Content  []Expr
}

func (e *ElemCtor) String() string {
	var b strings.Builder
	if e.NameExpr != nil {
		fmt.Fprintf(&b, "element {%s} {", e.NameExpr.String())
		for i, c := range e.Content {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.String())
		}
		b.WriteString("}")
		return b.String()
	}
	fmt.Fprintf(&b, "<%s", e.Name)
	for _, a := range e.Attrs {
		fmt.Fprintf(&b, ` %s="`, a.Name)
		for _, p := range a.Parts {
			if lit, ok := p.(*Literal); ok {
				b.WriteString(StringValue(lit.Val))
			} else {
				fmt.Fprintf(&b, "{%s}", p.String())
			}
		}
		b.WriteString(`"`)
	}
	b.WriteString(">")
	for _, c := range e.Content {
		if lit, ok := c.(*Literal); ok {
			if s, isStr := lit.Val.(string); isStr {
				b.WriteString(s)
				continue
			}
		}
		fmt.Fprintf(&b, "{ %s }", c.String())
	}
	fmt.Fprintf(&b, "</%s>", e.Name)
	return b.String()
}

// AttrCtorExpr is a standalone computed attribute constructor usable in
// element content: attribute name {expr}.
type AttrCtorExpr struct {
	Name  string
	Value Expr
}

func (e *AttrCtorExpr) String() string {
	return fmt.Sprintf("attribute %s {%s}", e.Name, e.Value.String())
}

// FuncDecl is a user function declaration from a query prologue:
// "define function name($p as type, …) as type { body }" (the paper's
// spelling) or the standard "declare function …". Type annotations are
// parsed and discarded — the engine is dynamically typed.
type FuncDecl struct {
	Name   string
	Params []string
	Body   Expr
}

// Module is a query with a prologue of function declarations.
type Module struct {
	Funcs []FuncDecl
	Body  Expr
}

func (e *Module) String() string {
	var b strings.Builder
	for _, f := range e.Funcs {
		fmt.Fprintf(&b, "declare function %s(", f.Name)
		for i, p := range f.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("$" + p)
		}
		fmt.Fprintf(&b, ") { %s }; ", f.Body.String())
	}
	b.WriteString(e.Body.String())
	return b.String()
}

// --- XCQL temporal extensions (compiled away by package xcql) -----------

// IntervalProj is e?[from,to]; To is nil for the point form e?[t].
type IntervalProj struct {
	E        Expr
	From, To Expr
}

func (e *IntervalProj) String() string {
	if e.To == nil {
		return fmt.Sprintf("%s?[%s]", e.E.String(), e.From.String())
	}
	return fmt.Sprintf("%s?[%s,%s]", e.E.String(), e.From.String(), e.To.String())
}

// VersionProj is e#[from,to]; To nil for e#[v]. The keyword last parses
// as the literal string "last" via LastMarker.
type VersionProj struct {
	E        Expr
	From, To Expr
}

func (e *VersionProj) String() string {
	if e.To == nil {
		return fmt.Sprintf("%s#[%s]", e.E.String(), e.From.String())
	}
	return fmt.Sprintf("%s#[%s,%s]", e.E.String(), e.From.String(), e.To.String())
}

// LastMarker is the symbolic version endpoint "last".
type LastMarker struct{}

func (e *LastMarker) String() string { return "last" }

// StreamRef is stream("name"): the root of a named stream's temporal view.
type StreamRef struct{ Name string }

func (e *StreamRef) String() string { return fmt.Sprintf("stream(%q)", e.Name) }
