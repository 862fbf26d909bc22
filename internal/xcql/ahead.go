package xcql

import (
	"slices"

	"xcql/internal/fragment"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// readAhead is a for clause's xq.ReadAhead under QaC+: the
// fillers calls its body makes on each binding — xcql:fillers($v, …) with
// $v the clause's variable, made once per binding whatever the binding
// holds — are read for every binding at once, one store read per call
// instead of one per binding, and each binding's call takes its group of
// that read. The calls are found once, at compile time (attachReadAhead).
//
// A call takes what its own read would have returned — positions count
// within its group, an id another binding holds is in both groups — and
// is charged what its own read would have charged, when it takes it: a
// tuple that never makes the call pays for nothing. A call with a pushed
// filter reads for itself (the filter charges a step per version it is
// asked about, when it is asked).
type readAhead []*Intrinsic

// alike reports that two correlated calls read alike: they cross the same
// holes with the same per-parent list, both of bare tops or both stamped.
func (in *Intrinsic) alike(o *Intrinsic) bool {
	return in.Stream == o.Stream && in.TSIDs[0] == o.TSIDs[0] && in.each == o.each && in.Bare == o.Bare
}

// clauseRead is one call made for every binding of its clause, as Begin
// returns it: groups[i] is binding i's group of els. A group that crossed
// no hole — a binding holding none of the call's — makes its call read as
// it would have.
type clauseRead struct {
	call   *Intrinsic
	st     *fragment.Store
	els    []*xmldom.Node
	items  xq.Sequence // els as items: a group is handed out as a window of it
	groups []fragment.Group
}

// Begin reads every call for every binding of seq.
func (ra readAhead) Begin(ctx *xq.Context, seq xq.Sequence) any {
	reads := make([]clauseRead, len(ra))
	for i := range reads {
		reads[i].call = ra[i]
		reads[i].read(ctx, seq)
	}
	return reads
}

// read makes r's call for every binding of seq: the bindings' hole ids go
// to the store as one deferred read whose groups are the bindings, each
// binding's ids distinct within its group, as its own call makes them.
func (r *clauseRead) read(ctx *xq.Context, seq xq.Sequence) {
	if r.st = r.call.rt.Store(r.call.Stream); r.st == nil {
		return // the call reports the missing stream itself
	}
	var in callInput
	if in.collect(seq, r.call.TSIDs[0], nil, true); len(in.ids) == 0 {
		return
	}
	read := fragment.Read{IDs: in.ids, Groups: in.groups, Bare: r.call.Bare, EachGroup: true, Defer: true}
	if r.call.each != nil {
		r.call.each.window(&read)
	}
	r.groups = in.groups
	r.els, _ = ctx.Static.Access.Read(r.st, read)
	r.items = xq.FromNodes(r.els)
}

// takeAhead answers fillers call in on nodes from what the clause that
// bound nodes read ahead, charging what the call's own read would have; ok
// is false when nothing was read for it, and the call reads for itself.
func takeAhead(ctx *xq.Context, nodes xq.Sequence, st *fragment.Store, in *Intrinsic) (seq xq.Sequence, ok bool, err error) {
	a, at, ok := ctx.Ahead(nodes)
	if !ok {
		return nil, false, nil
	}
	reads, _ := a.([]clauseRead)
	var r *clauseRead
	for i := range reads {
		if c := &reads[i]; c.st == st && c.call.alike(in) {
			r = c
			break
		}
	}
	if r == nil || r.groups == nil || r.groups[at].Holes == 0 {
		return nil, false, nil
	}
	g, lo := r.groups[at], 0
	if at > 0 {
		lo = r.groups[at-1].End
	}
	els := r.els[lo:g.End:g.End]
	ctx.Static.Access.Charge(st, g)
	if in.each != nil && len(in.each.rest()) > 0 {
		// never bare: a list the read does not serve whole keeps the tops
		// stamped (markBare)
		out, err := applyPreds(ctx, nil, els, in.each.rest())
		if err != nil {
			return nil, true, err
		}
		seq, err := chargeNodes(ctx.Static.Budget, out, 0)
		return seq, true, err
	}
	if err := meterNodes(ctx.Static.Budget, els, g.Stamps); err != nil {
		return nil, true, err
	}
	return r.items[lo:g.End:g.End], true, nil
}

// attachReadAhead gives every for clause of plan whose body makes
// correlated fillers calls a readAhead for them. plan is a new translation,
// its clauses its own.
func attachReadAhead(plan xq.Expr) {
	walkExpr(plan, func(e xq.Expr) {
		fl, ok := e.(*xq.FLWOR)
		if !ok {
			return
		}
		for i, cl := range fl.Clauses {
			fc, ok := cl.(xq.ForClause)
			if !ok {
				continue
			}
			var calls []*Intrinsic
			eachPerBinding(fl, i, func(e xq.Expr) {
				everyTime(e, func(c *xq.Call) {
					if in := correlated(c, fc.Var); in != nil && !slices.ContainsFunc(calls, in.alike) {
						calls = append(calls, in)
					}
				})
			})
			if calls != nil {
				fc.Ahead = readAhead(calls)
				fl.Clauses[i] = fc
			}
		}
	})
}

// correlated returns the intrinsic of c when c is xcql:fillers($v, …)
// with no pushed filter and no lifespan bound, whose ends may be the
// binding's own: a call that crosses the holes of $v's binding and of
// nothing else. Else nil.
func correlated(c *xq.Call, v string) *Intrinsic {
	in := IntrinsicOf(c)
	if in == nil || in.Op != FnFillers || in.filter != nil || in.span != nil {
		return nil
	}
	if ref, ok := c.Args[0].(*xq.VarRef); !ok || ref.Name != v {
		return nil
	}
	return in
}

// eachPerBinding visits what fl evaluates exactly once per binding of its
// clause i, in the binding's scope: the clauses after it up to and with
// the next for clause's sequence, and — when no for clause follows — the
// where clause, then, without a where to drop tuples, the order by keys
// and the return. A clause that binds the variable again ends the scope.
func eachPerBinding(fl *xq.FLWOR, i int, visit func(xq.Expr)) {
	v := fl.Clauses[i].(xq.ForClause).Var
	for _, cl := range fl.Clauses[i+1:] {
		switch c := cl.(type) {
		case xq.LetClause:
			visit(c.E)
			if c.Var == v {
				return
			}
		case xq.ForClause:
			visit(c.In)
			return
		}
	}
	if fl.Where != nil {
		visit(fl.Where)
		return
	}
	for _, spec := range fl.OrderBy {
		visit(spec.Key)
	}
	visit(fl.Return)
}

// everyTime visits the calls evaluated every time e is: e's own, those of
// a call's arguments, a path's or a filter's base, a sequence's items, a
// constructor's content, an operator's operands — the left one only for
// and/or — and the condition of an if, the first clause of a FLWOR and the
// range of a quantifier. Predicates, branches and bodies may not run.
func everyTime(e xq.Expr, visit func(*xq.Call)) {
	switch ex := e.(type) {
	case *xq.Call:
		visit(ex)
		for _, a := range ex.Args {
			everyTime(a, visit)
		}
	case *xq.Path:
		if ex.Base != nil {
			everyTime(ex.Base, visit)
		}
	case *xq.Filter:
		everyTime(ex.Base, visit)
	case *xq.SeqExpr:
		for _, it := range ex.Items {
			everyTime(it, visit)
		}
	case *xq.ElemCtor:
		for _, c := range ex.Content {
			everyTime(c, visit)
		}
	case *xq.BinOp:
		everyTime(ex.L, visit)
		if ex.Op != "and" && ex.Op != "or" {
			everyTime(ex.R, visit)
		}
	case *xq.Unary:
		everyTime(ex.E, visit)
	case *xq.If:
		everyTime(ex.Cond, visit)
	case *xq.FLWOR:
		if len(ex.Clauses) == 0 {
			return
		}
		switch c := ex.Clauses[0].(type) {
		case xq.ForClause:
			everyTime(c.In, visit)
		case xq.LetClause:
			everyTime(c.E, visit)
		}
	case *xq.Quantified:
		everyTime(ex.In, visit)
	}
}
