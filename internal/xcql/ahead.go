package xcql

import (
	"math"
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
// asked about, when it is asked), and so does every call of an evaluation
// with a cache, whose hits the earlier bindings' reads would warm.
type readAhead struct {
	rt    *Runtime
	calls []aheadCall
}

// aheadCall is one correlated call, as its groups are looked up: two calls
// that cross the same holes with the same per-parent list read alike.
type aheadCall struct {
	stream string
	tsid   int
	each   *perParent
}

// aheadReads is what Begin returns: reads[i] is calls[i] made for every
// binding.
type aheadReads struct {
	calls []aheadCall
	reads []aheadRead
}

// aheadRead is one call made for every binding of its clause.
type aheadRead struct {
	st    *fragment.Store
	els   []*xmldom.Node
	items xq.Sequence // els as items: a group is handed out as a window of it
	slots []aheadSlot // per binding
}

// aheadSlot is one binding's group, els[lo:hi], read from holes distinct
// hole ids, examining examined versions. holes == 0: the binding crosses
// none of the call's holes, and its call reads as it would have.
type aheadSlot struct{ lo, hi, holes, examined int32 }

// Begin reads every call for every binding of seq, or nothing when the
// evaluation's access path reads each call itself.
func (ra *readAhead) Begin(ctx *xq.Context, seq xq.Sequence) any {
	if _, each := ctx.Static.Access.FillersEach(nil, nil, fragment.Window{}); !each {
		return nil
	}
	reads := make([]aheadRead, len(ra.calls))
	for i, c := range ra.calls {
		ra.read(ctx, c, seq, &reads[i])
	}
	return &aheadReads{calls: ra.calls, reads: reads}
}

// read makes call c for every binding of seq into r: the bindings' hole
// ids, counted first so that the id list is built to size, go to the store
// as one window read whose groups are the bindings, in binding order.
func (ra *readAhead) read(ctx *xq.Context, c aheadCall, seq xq.Sequence, r *aheadRead) {
	if r.st = ra.rt.Store(c.stream); r.st == nil {
		return // the call reports the missing stream itself
	}
	total, groups := 0, 0
	for _, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			if k := fragment.CountHoles(n, c.tsid); k > 0 {
				total += k
				groups++
			}
		}
	}
	if groups == 0 {
		return
	}
	r.slots = make([]aheadSlot, len(seq))
	ids := make([]int, 0, total)
	bounds := make([]int, 2*groups)
	win := fragment.Window{From: 1, To: math.MaxInt, Ends: bounds[:0:groups]}
	if c.each != nil {
		win = c.each.window(win.Ends)
	}
	for i, it := range seq {
		n, ok := it.(*xmldom.Node)
		if !ok {
			continue
		}
		start := len(ids)
		ids = fragment.HoleIDs(ids, n, c.tsid)
		if len(ids) == start {
			continue
		}
		// one binding's ids are distinct, as its own call makes them
		set, _ := distinctTail(ids[start:], 0, nil)
		ids = ids[:start+len(set)]
		r.slots[i].holes = int32(len(set))
		win.Ends = append(win.Ends, len(ids))
	}
	win.Examined = bounds[groups:]
	els, _ := ctx.Static.Access.FillersEach(r.st, ids, win)
	r.els, r.items = els, xq.FromNodes(els)
	g, lo := 0, 0
	for i := range r.slots {
		s := &r.slots[i]
		if s.holes == 0 {
			continue
		}
		s.lo, s.hi, s.examined = int32(lo), int32(win.Ends[g]), int32(win.Examined[g])
		lo = win.Ends[g]
		g++
	}
}

// takeAhead answers a fillers call on nodes from what the clause that bound
// nodes read ahead, charging what the call's own read would have; ok is
// false when nothing was read for it, and the call reads for itself.
func takeAhead(ctx *xq.Context, nodes xq.Sequence, st *fragment.Store, tsid int, each *perParent) (seq xq.Sequence, ok bool, err error) {
	a, at, ok := ctx.Ahead(nodes)
	if !ok {
		return nil, false, nil
	}
	ar, _ := a.(*aheadReads)
	if ar == nil {
		return nil, false, nil
	}
	var r *aheadRead
	for i, c := range ar.calls {
		if ar.reads[i].st == st && c.tsid == tsid && c.each == each {
			r = &ar.reads[i]
			break
		}
	}
	if r == nil || r.slots == nil || r.slots[at].holes == 0 {
		return nil, false, nil
	}
	s := r.slots[at]
	els := r.els[s.lo:s.hi:s.hi]
	ctx.Static.Access.ChargeEach(st, int(s.holes), int(s.examined), len(els))
	if each != nil && len(each.rest()) > 0 {
		out, err := applyPerGroup(ctx, nil, els, []int{len(els)}, each.rest())
		if err != nil {
			return nil, true, err
		}
		seq, err := chargeNodes(ctx.Static.Budget, out)
		return seq, true, err
	}
	if err := meterNodes(ctx.Static.Budget, els); err != nil {
		return nil, true, err
	}
	return r.items[s.lo:s.hi:s.hi], true, nil
}

// attachReadAhead gives every for clause of plan whose body makes
// correlated fillers calls a readAhead for them. plan is a new translation,
// its clauses its own.
func (rt *Runtime) attachReadAhead(plan xq.Expr) {
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
			var calls []aheadCall
			eachPerBinding(fl, i, func(e xq.Expr) {
				everyTime(e, func(c *xq.Call) {
					if ac, ok := correlated(c, fc.Var); ok && !slices.Contains(calls, ac) {
						calls = append(calls, ac)
					}
				})
			})
			if calls != nil {
				fc.Ahead = &readAhead{rt: rt, calls: calls}
				fl.Clauses[i] = fc
			}
		}
	})
}

// correlated reports that c is xcql:fillers($v, stream, tsid[, per-parent]):
// a call that crosses the holes of $v's binding and of nothing else, with
// no pushed filter.
func correlated(c *xq.Call, v string) (aheadCall, bool) {
	if c.Name != fnFillers || len(c.Args) == 0 {
		return aheadCall{}, false
	}
	if ref, ok := c.Args[0].(*xq.VarRef); !ok || ref.Name != v {
		return aheadCall{}, false
	}
	args, each := c.Args, parentPreds(c.Args)
	if each != nil {
		args = args[:len(args)-1]
	}
	stream, tsid := litString(args, 1), litInt(args, 2)
	if _, filter := splitFilter(args); filter != nil || len(args) != 3 || stream == "" || tsid <= 0 {
		return aheadCall{}, false
	}
	return aheadCall{stream: stream, tsid: tsid, each: each}, true
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
