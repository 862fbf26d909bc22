package xcql

import (
	"xcql/internal/fragment"
	"xcql/internal/temporal"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// Lifespan bounds. A temporal projection that directly follows a step —
// e/A?[a,b], e//A#[i,j] — is the read of that step, bounded: the
// translator pushes it into the step's xcql:fillers or xcql:bytsid call
// (pushSpan), whose read drops each version outside the window before it
// builds it and stamps a kept one with its clipped lifespan
// (fragment.Span), instead of building and stamping every version and
// clipping them after. What lies below a kept version the call projects
// itself (below), crossing its holes under the same bound. The plan spells
// the bound after the call's other operands; it costs no budget step.

// pushSpans turns the pushdown on; tests turn it off to compare.
var pushSpans = true

// bound is a projection pushed into a read: e?[from,to] (to == from for
// e?[t]) or e#[from,to], its ends as the projection call spelled them, and,
// when they are constant (literals and arithmetic), their values, taken
// once at compile time.
type bound struct {
	versions bool
	from, to xq.Expr
	fixed    bool
	span     fragment.Span // the values, when fixed; its Horizon unset
}

// pushSpan returns the call inner with the projection op over ends from and
// to (in its call form: "last" a string) pushed into it, or nil when inner
// is no call that can take it: an xcql:fillers or xcql:bytsid call with no
// bound and no per-parent list — a list counts positions the bound would
// shift —, and for a version range one tag, as a version range numbers the
// versions of the whole read.
func pushSpan(op string, inner xq.Expr, from, to xq.Expr) *xq.Call {
	in := IntrinsicOf(inner)
	if !pushSpans || in == nil || in.Op != FnFillers && in.Op != FnByTSID || in.span != nil || in.each != nil {
		return nil
	}
	b := &bound{versions: op == FnVProj, from: from, to: to}
	if b.versions && len(in.TSIDs) != 1 {
		return nil
	}
	b.fold()
	pushed := *in
	pushed.span = b
	return pushed.call(inner.(*xq.Call).Args...)
}

// fold takes the bound's values once when both ends are constant: a
// constant end means the same at every evaluation (now stays symbolic).
func (b *bound) fold() {
	if !constantExpr(b.from) || !constantExpr(b.to) {
		return
	}
	// an end that fails to evaluate here is left to fail where the
	// evaluation reaches it, as the projection call's did
	ctx := xq.NewContext(&xq.Static{})
	from, err := xq.Eval(b.from, ctx)
	if err != nil {
		return
	}
	to, err := xq.Eval(b.to, ctx)
	if err != nil {
		return
	}
	if b.span, err = b.of(from, to); err == nil {
		b.fixed = true
	}
}

// constantExpr reports an expression built of literals and arithmetic
// alone: it is the same at every evaluation at one instant, and, as now
// stays symbolic, at every instant.
func constantExpr(e xq.Expr) bool {
	ok := true
	walkExpr(e, func(n xq.Expr) {
		switch n.(type) {
		case *xq.Literal, *xq.BinOp, *xq.Unary:
		default:
			ok = false
		}
	})
	return ok
}

// eval is the bound of one call: its values, the ends evaluated in ctx
// unless they are fixed, reporting to the evaluation's horizon.
func (b *bound) eval(ctx *xq.Context) (fragment.Span, error) {
	sp := b.span
	if !b.fixed {
		from, err := xq.Eval(b.from, ctx)
		if err != nil {
			return sp, err
		}
		to, err := xq.Eval(b.to, ctx)
		if err != nil {
			return sp, err
		}
		if sp, err = b.of(from, to); err != nil {
			return sp, err
		}
	}
	sp.Horizon = ctx.Static.Horizon
	return sp, nil
}

// of is the bound of the ends' values, each taken as every plan takes a
// projection's ends (xq.TimeEndpoint, xq.VersionEndpoint).
func (b bound) of(from, to xq.Sequence) (sp fragment.Span, err error) {
	if b.versions {
		sp.Kind = fragment.VersionSpan
		v := &sp.Versions
		if v.From, v.FromLast, err = xq.VersionEndpoint(from); err == nil {
			v.To, v.ToLast, err = xq.VersionEndpoint(to)
		}
		return sp, err
	}
	sp.Kind = fragment.IntervalSpan
	if sp.Window.From, err = xq.TimeEndpoint(from); err == nil {
		sp.Window.To, err = xq.TimeEndpoint(to)
	}
	return sp, err
}

// String spells the bound as the query did: ?[a,b], ?[t], #[i,j].
func (b *bound) String() string {
	mark, end := "?", func(e xq.Expr) string { return e.String() }
	if b.versions {
		mark = "#"
		end = func(e xq.Expr) string {
			if lit, ok := e.(*xq.Literal); ok && lit.Val == "last" {
				return "last"
			}
			return e.String()
		}
	}
	if b.to == b.from {
		return mark + "[" + end(b.from) + "]"
	}
	return mark + "[" + end(b.from) + "," + end(b.to) + "]"
}

// below projects what lies below each of els, the versions a read kept
// under sp, in place: under an interval the window, under a version range
// each version's own lifespan, crossing holes under the same bound (§6).
// A version with no hole and no stamped element below it is its own
// projection, and costs nothing here.
func below(static *xq.Static, st *fragment.Store, els []*xmldom.Node, sp fragment.Span) {
	if sp.Kind == fragment.NoSpan {
		return
	}
	var resolve temporal.HoleResolver
	sub := fragment.Span{Kind: fragment.IntervalSpan, Window: sp.Window, Horizon: sp.Horizon}
	for i, el := range els {
		if temporal.Settled(el) {
			continue
		}
		if sp.Kind == fragment.VersionSpan {
			sub.Window = temporal.LifespanOf(el)
		}
		if resolve == nil {
			resolve = spanResolver(static, st, &sub)
		}
		els[i] = temporal.ProjectBelow(el, sub.Window, static.Now, static.Horizon, resolve)
	}
}

// project is the projection sp stands for over els whole — elements built
// already, such as a node's inline children or a projection call's input.
func project(static *xq.Static, st *fragment.Store, els []*xmldom.Node, sp fragment.Span) []*xmldom.Node {
	resolve := spanResolver(static, st, &fragment.Span{})
	if sp.Kind == fragment.VersionSpan {
		return temporal.VersionProjection(els, sp.Versions, static.Now, static.Horizon, resolve)
	}
	return temporal.IntervalProjection(els, sp.Window, static.Now, static.Horizon, resolve)
}

// projection evaluates an xcql:iproj or xcql:vproj call, args its input
// and its ends: the bound of the ends over the nodes the input built.
func (in *Intrinsic) projection(ctx *xq.Context, st *fragment.Store, args []xq.Sequence) (xq.Sequence, error) {
	sp, err := bound{versions: in.Op == FnVProj}.of(args[1], args[2])
	if err != nil {
		return nil, err
	}
	out := xq.FromNodes(project(ctx.Static, st, xq.Nodes(args[0]), sp))
	if err := ctx.Static.Budget.AddItems(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

// spanResolver crosses a hole as a projection under *sp does: the
// evaluation's access path over st, reading the hole's fillers under the
// bound, metered as every hole crossing is (temporal.BudgetResolver).
func spanResolver(static *xq.Static, st *fragment.Store, sp *fragment.Span) temporal.HoleResolver {
	return temporal.BudgetResolver(static.Budget, func(id int) []*xmldom.Node {
		els, _ := static.Access.Read(st, fragment.Read{Source: fragment.FromHole, ID: id, Span: *sp})
		return els
	})
}

// boundOf is the lifespan bound call c — an intrinsic's — applies, nil
// when it applies none: a read's pushed bound, a projection call's ends.
func boundOf(c *xq.Call) *bound {
	if in := IntrinsicOf(c); in.Op != FnIProj && in.Op != FnVProj {
		return in.span
	}
	return &bound{versions: c.Name == FnVProj, from: c.Args[1], to: c.Args[2]}
}

// Distributes reports that call c, an intrinsic's, maps each version it
// reads or is given on its own under its bound, if any: an interval, or
// the version range #[1,last], which keeps every version. Any other range
// numbers the versions of its whole input.
func Distributes(c *xq.Call) bool {
	b := boundOf(c)
	return b == nil || !b.versions || keepsAllVersions(b.from, b.to)
}

// Constant reports that call c's bound, if any, is the same at every
// evaluation: its ends are literals and arithmetic.
func Constant(c *xq.Call) bool {
	b := boundOf(c)
	return b == nil || constantExpr(b.from) && constantExpr(b.to)
}

// keepsAllVersions reports the version range #[1,last], its ends in a
// projection call's form: what keeps every version.
func keepsAllVersions(from, to xq.Expr) bool {
	f, ok1 := from.(*xq.Literal)
	t, ok2 := to.(*xq.Literal)
	return ok1 && ok2 && f.Val == 1.0 && t.Val == "last"
}

// Project returns the projection the call's bound stands for, over base
// — the xcql:iproj or xcql:vproj call the translator would have made —,
// nil when the call carries none: what a reader that fetches the call's
// versions itself (an incremental unit) applies to them instead.
func (in *Intrinsic) Project(base xq.Expr) xq.Expr {
	if in.span == nil {
		return nil
	}
	op := FnIProj
	if in.span.versions {
		op = FnVProj
	}
	return (&Intrinsic{Op: op, Stream: in.Stream, rt: in.rt}).call(base, in.span.from, in.span.to)
}
