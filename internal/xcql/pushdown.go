package xcql

import (
	"slices"
	"strings"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// pushed is a filter the translator moved below an access call: a
// conjunction of "relpath op literal" conditions the access path evaluates
// on each stored payload before it builds the version's top element, so a
// version the query would discard costs no node, no context and no
// comparison in the evaluator. It is the call's Intrinsic's filter, which
// is how it reaches the read, the plan's rendering (and so the incremental
// engine's unit signatures) and EXPLAIN.
//
// A condition is pushable when the translator can prove, from the Tag
// Structure, that its path reads only what is inline in the payload: child
// steps through non-fragmented tags, closed by an optional attribute step,
// never vtFrom or vtTo (the read stamps those on the top element; the
// payload does not have them), no predicate and no wildcard on the way. On
// such a path the evaluator's child and attribute steps and matches below
// find the same nodes, and both compare through xq.LexicalHolds' core, so
// pushing changes what is built, never what is returned.
type pushed struct {
	conds []cond
}

// cond is one "relpath op literal" condition, with general-comparison
// semantics: it holds when any node the path reaches compares true.
type cond struct {
	steps []string // child element steps down from the payload's top
	attr  string   // the closing attribute step, "" when the path ends at an element
	op    string
	lit   xq.Comparand // classified once, here, not once per version
	val   xq.Item      // the literal itself, for pred
}

// holds evaluates the condition on n, steps[depth:] still to walk.
func (c *cond) holds(n *xmldom.Node, depth int, st *xq.Static) bool {
	if depth == len(c.steps) {
		if c.attr == "" {
			return xq.LexicalHolds(c.op, n.Text(), &c.lit, st)
		}
		v, ok := n.Attr(c.attr)
		return ok && xq.LexicalHolds(c.op, v, &c.lit, st)
	}
	for _, k := range n.Children {
		if k.Type == xmldom.ElementNode && k.Name == c.steps[depth] && c.holds(k, depth+1, st) {
			return true
		}
	}
	return false
}

// path spells the condition's relative path as the evaluator would run it.
func (c *cond) path() *xq.Path {
	p := &xq.Path{}
	for _, name := range c.steps {
		p.Steps = append(p.Steps, xq.Step{Axis: xq.AxisChild, Name: name})
	}
	if c.attr != "" {
		p.Steps = append(p.Steps, xq.Step{Axis: xq.AxisAttribute, Name: c.attr})
	}
	return p
}

// pred is the filter as a predicate over the context item: what a reader
// that holds the versions already (an incremental unit) applies in the
// evaluator instead; nil for no filter.
func (p *pushed) pred() xq.Expr {
	if p == nil {
		return nil
	}
	var out xq.Expr
	for i := range p.conds {
		c := &p.conds[i]
		var e xq.Expr = &xq.BinOp{Op: c.op, L: c.path(), R: xq.NewLiteral(c.val)}
		if out == nil {
			out = e
		} else {
			out = &xq.BinOp{Op: "and", L: out, R: e}
		}
	}
	return out
}

// String renders the filter the way the query spelled it, one bracket per
// condition: [@id = "person0"][price >= 40].
func (p *pushed) String() string {
	var b strings.Builder
	for i := range p.conds {
		c := &p.conds[i]
		b.WriteString("[" + c.path().String() + " " + c.op + " " + xq.NewLiteral(c.val).String() + "]")
	}
	return b.String()
}

// bind closes the filter over one evaluation: its clock and horizon for
// the comparisons, and its budget — every version examined is a step, so a
// filter that turns everything away is still bounded and cancellable. No
// filter binds to nil.
func (p *pushed) bind(st *xq.Static) fragment.Filter {
	if p == nil {
		return nil
	}
	return func(v fragment.Version) bool {
		st.Budget.MustStep()
		n := v.Payload()
		for i := range p.conds {
			if !p.conds[i].holds(n, 0, st) {
				return false
			}
		}
		return true
	}
}

// flipped is the operator that holds for (b, a) exactly when op holds for
// (a, b).
var flipped = map[string]string{"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}

// conjuncts flattens a tree of "and" into its operands, in evaluation
// order.
func conjuncts(e xq.Expr, out []xq.Expr) []xq.Expr {
	if b, ok := e.(*xq.BinOp); ok && b.Op == "and" {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, e)
}

// pushable compiles e — a general comparison between a literal and a path
// from origin ("" for the context item, else a variable's name) whose items
// have the static type ts — into a condition, when every step of the path
// is provably inline in the payload of every tag of ts.
func pushable(e xq.Expr, origin string, ts typeSet) (cond, bool) {
	cmp, ok := e.(*xq.BinOp)
	if !ok || flipped[cmp.Op] == "" {
		return cond{}, false
	}
	op, l, r := cmp.Op, cmp.L, cmp.R
	if _, isLit := l.(*xq.Literal); isLit {
		op, l, r = flipped[op], r, l
	}
	path, ok := l.(*xq.Path)
	lit, isLit := r.(*xq.Literal)
	if !ok || !isLit || len(path.Steps) == 0 || len(ts) == 0 {
		return cond{}, false
	}
	switch base := path.Base.(type) {
	case nil:
		if origin != "" {
			return cond{}, false
		}
	case *xq.VarRef:
		if base.Name != origin {
			return cond{}, false
		}
	default:
		return cond{}, false
	}
	c := cond{op: op, lit: xq.ClassifyLiteral(lit.Val), val: lit.Val}
	for i, s := range path.Steps {
		switch {
		case len(s.Preds) > 0 || s.Name == "*" || s.Name == "text()" || s.Name == "vtFrom" || s.Name == "vtTo":
			return cond{}, false
		case s.Axis == xq.AxisAttribute && i == len(path.Steps)-1:
			c.attr = s.Name
		case s.Axis == xq.AxisChild:
			c.steps = append(c.steps, s.Name)
		default:
			return cond{}, false
		}
	}
	for _, tt := range ts {
		if !inlineUnder(tt.tag.Children, c.steps) {
			return cond{}, false
		}
	}
	return c, true
}

// inlineUnder reports that the child steps, taken from an element with the
// given child tags, reach at least one tag and only ever pass through
// non-fragmented ones: whatever they select is in the payload, not behind
// a hole.
func inlineUnder(children []*tagstruct.Tag, steps []string) bool {
	if len(steps) == 0 {
		return true
	}
	found := false
	for _, child := range children {
		if child.Name != steps[0] {
			continue
		}
		if child.IsFragmented() || !inlineUnder(child.Children, steps[1:]) {
			return false
		}
		found = true
	}
	return found
}

// pushConjuncts compiles the longest leading run of es that is pushable —
// stopping at the first expression that is not keeps the evaluation order
// of what remains — and returns it with the rest.
func pushConjuncts(es []xq.Expr, origin string, ts typeSet) ([]cond, []xq.Expr) {
	var conds []cond
	for i, e := range es {
		c, ok := pushable(e, origin, ts)
		if !ok {
			return conds, es[i:]
		}
		conds = append(conds, c)
	}
	return conds, nil
}

// readCall returns the intrinsic of e when e is a call that reads
// fillers through the access path, and so can carry a filter; else nil.
func readCall(e xq.Expr) *Intrinsic {
	if in := IntrinsicOf(e); in != nil && (in.Op == FnFillers || in.Op == FnByTSID) {
		return in
	}
	return nil
}

// withFilter returns call, a readCall, with conds added to its filter.
func withFilter(call xq.Expr, conds []cond) xq.Expr {
	if len(conds) == 0 {
		return call
	}
	in := *IntrinsicOf(call)
	if in.filter != nil {
		conds = append(slices.Clip(in.filter.conds), conds...)
	}
	in.filter = &pushed{conds: conds}
	return in.call(call.(*xq.Call).Args...)
}

// pushStepPreds moves the leading predicates of a step below the access
// calls its pieces are, when all of them are and none counts a version
// range (Intrinsic.Distributes): a predicate goes down whole
// or not at all, and the first one that stays keeps every later one with
// it (they may count positions in its output). It returns the pieces and
// the predicates still to apply.
func pushStepPreds(pieces []xq.Expr, ts typeSet, preds []xq.Expr) ([]xq.Expr, []xq.Expr) {
	for _, p := range pieces {
		if in := readCall(p); in == nil || !in.Distributes() {
			return pieces, preds
		}
	}
	var conds []cond
	for len(preds) > 0 {
		cs, rest := pushConjuncts(conjuncts(preds[0], nil), "", ts)
		if len(rest) > 0 {
			break
		}
		conds, preds = append(conds, cs...), preds[1:]
	}
	if len(conds) == 0 {
		return pieces, preds
	}
	out := make([]xq.Expr, len(pieces))
	for i, p := range pieces {
		out[i] = withFilter(p, conds)
	}
	return out, preds
}

// pushWhere moves the leading conjuncts of a FLWOR's where below the
// access call its last clause — a for without a positional variable —
// ranges over, when they read nothing but that clause's variable:
// filtering the variable's input is then filtering the tuples, and nothing
// is evaluated between the two. clauses are the translated clauses, vars
// the static types of the variables they bind. It returns the clauses and
// the where still to evaluate (nil: all of it went down).
func pushWhere(clauses []any, where xq.Expr, vars map[string]typeSet) ([]any, xq.Expr) {
	if len(clauses) == 0 {
		return clauses, where
	}
	last := len(clauses) - 1
	fc, ok := clauses[last].(xq.ForClause)
	if !ok || fc.PosVar != "" {
		return clauses, where
	}
	if in := readCall(fc.In); in == nil || in.each != nil || !in.Distributes() {
		// a filter goes below the positions a per-parent list or a version
		// range counts, and a where filters what they selected
		return clauses, where
	}
	conds, rest := pushConjuncts(conjuncts(where, nil), fc.Var, vars[fc.Var])
	if len(conds) == 0 {
		return clauses, where
	}
	fc.In = withFilter(fc.In, conds)
	out := append(append([]any(nil), clauses[:last]...), fc)
	var residual xq.Expr
	for _, e := range rest {
		if residual == nil {
			residual = e
		} else {
			residual = &xq.BinOp{Op: "and", L: residual, R: e}
		}
	}
	return out, residual
}
