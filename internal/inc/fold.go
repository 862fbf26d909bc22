package inc

import (
	"slices"
	"time"

	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// Term folding: the per-version memo one level down. A version re-runs
// whole, and its body's aggregate over a child step — sum, avg or count of
// a chain that maps its input node by node over xcql:fillers — re-crosses
// every hole the version holds. Over a partition of the child step's
// output the chain's outputs concatenate to its output over the whole, as a
// unit's versions do, so each child filler's part is a term that depends on
// that child alone: its versions, what lies below it, and the clock. The
// engine evaluates it once, keeps it (termMemo), and a re-run version folds
// the terms of its holes (xcql.FoldSite).

// fold rewrites the aggregates of an indexed piece's body that fold from
// per-child terms into xcql:fold calls on what their chains crossed the
// child step with; a site's term is its chain with the unit slot there.
// Nothing else in the body changes. On a scan store a child step's read
// costs a pass over the whole log however many holes it crosses — not the
// sum of one read per child — so nothing folds there.
func (e *Engine) fold(p *piece) {
	if e.store.Scanning() {
		return
	}
	var folds []string
	folded := rewrite(p.expr, func(x xq.Expr) xq.Expr {
		c, ok := x.(*xq.Call)
		if !ok || len(c.Args) != 1 || c.Name != "sum" && c.Name != "avg" && c.Name != "count" || !e.q.PureCall(c.Name) {
			return nil
		}
		cross := e.termChain(c.Args[0])
		if cross == nil {
			return nil
		}
		chain := rewrite(c.Args[0], func(x xq.Expr) xq.Expr {
			if x == cross {
				return unitRef
			}
			return nil
		})
		e.sites = append(e.sites, xcql.FoldSite{Agg: c.Name, Chain: chain})
		folds = append(folds, c.Name+" folded over "+e.structure.ByID(xcql.IntrinsicOf(cross).TSIDs[0]).Name+" terms")
		return xcql.FoldCall(cross, len(e.sites)-1)
	})
	if folds != nil {
		p.folded, p.folds = folded, folds
	}
}

// termChain returns the child step a chain folds over — the
// xcql:fillers call on the bound stream at its base, plain or under a
// lifespan bound that maps each version on its own and is the same at
// every evaluation — when every layer above it maps its input node by node
// and reads the store only through it: a child or attribute step without
// predicates, an interval projection with constant bounds, a version
// projection keeping every version. Else nil.
func (e *Engine) termChain(x xq.Expr) *xq.Call {
	for {
		switch t := x.(type) {
		case *xq.Path:
			if t.Base == nil {
				return nil
			}
			for _, s := range t.Steps {
				if s.Axis != xq.AxisChild && s.Axis != xq.AxisAttribute || len(s.Preds) > 0 {
					return nil
				}
			}
			x = t.Base
		case *xq.Call:
			in := xcql.IntrinsicOf(t)
			if in == nil || in.Stream != e.stream || !xcql.Distributes(t) || !xcql.Constant(t) {
				return nil
			}
			switch in.Op {
			case xcql.FnFillers:
				if in.Whole() && e.structure.ByID(in.TSIDs[0]) != nil {
					return t
				}
				return nil
			case xcql.FnIProj, xcql.FnVProj:
				x = t.Args[0]
			default:
				return nil
			}
		default:
			return nil
		}
	}
}

// termKey names a term: a fold site and the child filler id it is of.
type termKey struct{ site, fid int }

// termMemo is the engine's xcql.TermMemo. A term holds until its child's
// content changes — an arrival whose containment climb passes through the
// child (markArrival), which covers the child's own versions, a pending one
// becoming visible and anything stored below it — or until the clock
// reaches its horizon; recomputeAll forgets every term.
type termMemo struct {
	kept map[termKey]*xcql.Term
	// sites is the number of fold sites; runs counts the terms evaluated
	// for the arrival in progress.
	sites, runs int
}

func (m *termMemo) Term(site, fid int, at time.Time) *xcql.Term {
	t := m.kept[termKey{site, fid}]
	if t != nil {
		if h := t.Horizon(); !h.IsZero() && !at.Before(h) {
			return nil
		}
	}
	return t
}

func (m *termMemo) KeepTerm(site, fid int, t *xcql.Term) {
	if m.kept == nil {
		m.kept = make(map[termKey]*xcql.Term)
	}
	m.kept[termKey{site, fid}] = t
	m.runs++
}

// drop forgets the terms of child fid.
func (m *termMemo) drop(fid int) {
	if len(m.kept) == 0 {
		return
	}
	for site := range m.sites {
		delete(m.kept, termKey{site, fid})
	}
}

// rewrite returns x with the nodes f replaces (f returns non-nil) replaced,
// copying every node above them; what f replaces is not descended into.
func rewrite(x xq.Expr, f func(xq.Expr) xq.Expr) xq.Expr {
	if x == nil {
		return nil
	}
	if y := f(x); y != nil {
		return y
	}
	r := func(x xq.Expr) xq.Expr { return rewrite(x, f) }
	all := func(xs []xq.Expr) []xq.Expr {
		if xs == nil {
			return nil
		}
		out := make([]xq.Expr, len(xs))
		for i, x := range xs {
			out[i] = r(x)
		}
		return out
	}
	switch t := x.(type) {
	case *xq.SeqExpr:
		return &xq.SeqExpr{Items: all(t.Items)}
	case *xq.Path:
		c := &xq.Path{Base: r(t.Base), Steps: slices.Clone(t.Steps)}
		for i := range c.Steps {
			c.Steps[i].Preds = all(c.Steps[i].Preds)
		}
		return c
	case *xq.Filter:
		return &xq.Filter{Base: r(t.Base), Preds: all(t.Preds)}
	case *xq.BinOp:
		c := *t
		c.L, c.R = r(t.L), r(t.R)
		return &c
	case *xq.Unary:
		return &xq.Unary{E: r(t.E)}
	case *xq.If:
		return &xq.If{Cond: r(t.Cond), Then: r(t.Then), Else: r(t.Else)}
	case *xq.FLWOR:
		c := &xq.FLWOR{Clauses: make([]any, len(t.Clauses)), Where: r(t.Where), OrderBy: slices.Clone(t.OrderBy), Return: r(t.Return)}
		for i, cl := range t.Clauses {
			switch k := cl.(type) {
			case xq.ForClause:
				k.In = r(k.In)
				c.Clauses[i] = k
			case xq.LetClause:
				k.E = r(k.E)
				c.Clauses[i] = k
			default:
				c.Clauses[i] = cl
			}
		}
		for i := range c.OrderBy {
			c.OrderBy[i].Key = r(c.OrderBy[i].Key)
		}
		return c
	case *xq.Quantified:
		c := *t
		c.In, c.Satisfies = r(t.In), r(t.Satisfies)
		return &c
	case *xq.Call:
		return &xq.Call{Name: t.Name, Args: all(t.Args), Callee: t.Callee}
	case *xq.ElemCtor:
		c := *t
		c.NameExpr, c.Content = r(t.NameExpr), all(t.Content)
		c.Attrs = slices.Clone(t.Attrs)
		for i := range c.Attrs {
			c.Attrs[i].Parts = all(c.Attrs[i].Parts)
		}
		return &c
	case *xq.AttrCtorExpr:
		return &xq.AttrCtorExpr{Name: t.Name, Value: r(t.Value)}
	}
	// leaves, and what no piece body holds (a module, an uncompiled
	// projection): shared as they are
	return x
}
