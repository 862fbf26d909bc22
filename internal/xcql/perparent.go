package xcql

import (
	"math"
	"slices"
	"strings"

	"xcql/internal/fragment"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// perParent is the predicate list a child step's positional predicates
// ride on its one fillers call as: a trailing literal argument, after the
// pushed filter when there is one. intrFillers applies it to each input
// node's group of versions, position() and last() counted within the
// group — how the evaluator applies a step's predicates, once per context
// node, and so how CaQ, whose steps stay plain, applies them. A Filter over
// the call's whole output would count across parents.
//
// When the list opens with a position a read can serve ([n], [last()],
// [position() <= n], [position() < n]), the read does: it gets the
// positions as a fragment.Read's window and builds no version outside
// them.
type perParent struct {
	preds    []xq.Expr
	win      fragment.Read // the window preds[0] selects, when windowed
	windowed bool
}

// String renders the list the way the plan carries it — per-parent:[…]…,
// with window[…] for the predicate the read serves — which is also what
// the incremental engine's unit signatures are built from.
func (p *perParent) String() string { return "per-parent:" + p.list() }

// list spells the predicates, the windowed one marked.
func (p *perParent) list() string {
	var b strings.Builder
	for i, e := range p.preds {
		if i == 0 && p.windowed {
			b.WriteString("window")
		}
		b.WriteString("[" + e.String() + "]")
	}
	return b.String()
}

// rest is what the evaluator still applies to a group once the read has.
func (p *perParent) rest() []xq.Expr {
	if p.windowed {
		return p.preds[1:]
	}
	return p.preds
}

// window gives a read over the parents' groups the positions preds[0]
// selects, when the read serves them; it reads every position otherwise.
func (p *perParent) window(r *fragment.Read) {
	if p.windowed {
		r.From, r.To, r.Last = p.win.From, p.win.To, p.win.Last
	}
}

// applyPreds appends to out what group, one parent's versions, keeps under
// preds.
func applyPreds(ctx *xq.Context, out, group []*xmldom.Node, preds []xq.Expr) ([]*xmldom.Node, error) {
	if len(preds) == 0 || len(group) == 0 {
		return appendNodes(out, group), nil
	}
	kept, err := xq.ApplyPredicates(xq.FromNodes(group), preds, ctx)
	if err != nil {
		return nil, err
	}
	for _, it := range kept {
		out = append(out, it.(*xmldom.Node))
	}
	return out, nil
}

// appendNodes is append(out, els...) that takes els itself while out is
// empty: what an access read returns is its caller's.
func appendNodes(out, els []*xmldom.Node) []*xmldom.Node {
	if len(out) == 0 {
		return els
	}
	return append(out, els...)
}

// parentPreds returns the per-parent list an access call carries, nil
// when it carries none.
func parentPreds(args []xq.Expr) *perParent {
	if n := len(args); n > 0 {
		if v, ok := litOf(args[n-1]); ok {
			if p, ok := v.(*perParent); ok {
				return p
			}
		}
	}
	return nil
}

// eachParent hangs the predicates of a child step that count positions on
// the step's one piece, so that they apply per parent: on an inline step as
// the step's own predicates, on a fillers call as a per-parent list.
func eachParent(piece xq.Expr, preds []xq.Expr) xq.Expr {
	if p, ok := piece.(*xq.Path); ok {
		steps := slices.Clone(p.Steps)
		last := &steps[len(steps)-1]
		last.Preds = append(last.Preds[:len(last.Preds):len(last.Preds)], preds...)
		return &xq.Path{Base: p.Base, Steps: steps}
	}
	call := piece.(*xq.Call)
	pp := &perParent{preds: preds}
	pp.win, pp.windowed = windowOf(preds[0])
	return &xq.Call{Name: call.Name, Args: append(call.Args[:len(call.Args):len(call.Args)], xq.NewLiteral(pp))}
}

// windowOf reports the positions a predicate selects when it is one a read
// can serve: [n], [last()], [position() <= n] or [position() < n], n a
// positive integer literal.
func windowOf(e xq.Expr) (fragment.Read, bool) {
	switch ex := e.(type) {
	case *xq.Literal:
		if n, ok := positiveInt(ex.Val); ok {
			return fragment.Read{From: n, To: n}, true
		}
	case *xq.Call:
		if ex.Name == "last" && len(ex.Args) == 0 {
			return fragment.Read{Last: true}, true
		}
	case *xq.BinOp:
		pos, isCall := ex.L.(*xq.Call)
		lit, isLit := ex.R.(*xq.Literal)
		if !isCall || !isLit || pos.Name != "position" || len(pos.Args) != 0 {
			break
		}
		n, ok := positiveInt(lit.Val)
		switch {
		case ok && ex.Op == "<=":
			return fragment.Read{From: 1, To: n}, true
		case ok && ex.Op == "<":
			return fragment.Read{From: 1, To: n - 1}, true
		}
	}
	return fragment.Read{}, false
}

func positiveInt(v xq.Item) (int, bool) {
	f, ok := v.(float64)
	if !ok || f < 1 || f > math.MaxInt32 || f != math.Trunc(f) {
		return 0, false
	}
	return int(f), true
}

// positional reports that a predicate may depend on where its item stands:
// it may evaluate to a number, which selects by position, or it calls
// position() or last(). Only a comparison, a conjunction or disjunction, a
// path or a quantifier that calls neither is known not to; anything else is
// taken to, which is never wrong — per parent is how a step's predicates
// apply — and costs an evaluation per parent instead of one.
func positional(e xq.Expr) bool {
	switch ex := e.(type) {
	case *xq.BinOp:
		if !ex.Boolean() {
			return true
		}
	case *xq.Path:
		if len(ex.Steps) == 0 {
			return true
		}
	case *xq.Quantified:
	default:
		return true
	}
	counts := false
	walkExpr(e, func(n xq.Expr) {
		if c, ok := n.(*xq.Call); ok && (c.Name == "position" || c.Name == "last") {
			counts = true
		}
	})
	return counts
}
