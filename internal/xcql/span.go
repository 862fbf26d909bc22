package xcql

import (
	"fmt"

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
	if !ConstantExpr(b.from) || !ConstantExpr(b.to) {
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

// ConstantExpr reports an expression built of literals and arithmetic
// alone: it is the same at every evaluation at one instant, and, as now
// stays symbolic, at every instant.
func ConstantExpr(e xq.Expr) bool {
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

// of is the bound of the ends' values, checked as the projection calls
// check them.
func (b *bound) of(from, to xq.Sequence) (fragment.Span, error) {
	var sp fragment.Span
	if b.versions {
		sp.Kind = fragment.VersionSpan
		var ok bool
		v := &sp.Versions
		if v.From, v.FromLast, ok = endpointVersion(from); !ok {
			return sp, fmt.Errorf("xcql: version start is not a number")
		}
		if v.To, v.ToLast, ok = endpointVersion(to); !ok {
			return sp, fmt.Errorf("xcql: version end is not a number")
		}
		return sp, nil
	}
	sp.Kind = fragment.IntervalSpan
	var ok bool
	if sp.Window.From, ok = endpointDateTime(from); !ok {
		return sp, fmt.Errorf("xcql: interval start is not a dateTime")
	}
	if sp.Window.To, ok = endpointDateTime(to); !ok {
		return sp, fmt.Errorf("xcql: interval end is not a dateTime")
	}
	return sp, nil
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
// already, such as a node's inline children —: what the projection call
// made of them.
func project(static *xq.Static, st *fragment.Store, els []*xmldom.Node, sp fragment.Span) []*xmldom.Node {
	resolve := spanResolver(static, st, &fragment.Span{})
	if sp.Kind == fragment.VersionSpan {
		return temporal.VersionProjection(els, sp.Versions, static.Now, static.Horizon, resolve)
	}
	return temporal.IntervalProjection(els, sp.Window, static.Now, static.Horizon, resolve)
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

// Distributes reports that the call's bound, if any, maps each version it
// reads on its own: an interval, or the version range #[1,last], which
// keeps every version. Any other range numbers the versions of the whole
// read.
func (in *Intrinsic) Distributes() bool {
	return in.span == nil || !in.span.versions || KeepsAllVersions(in.span.from, in.span.to)
}

// Constant reports that the call's bound, if any, is the same at every
// evaluation: its ends are literals and arithmetic.
func (in *Intrinsic) Constant() bool {
	return in.span == nil || ConstantExpr(in.span.from) && ConstantExpr(in.span.to)
}

// KeepsAllVersions reports the version range #[1,last], its ends in a
// projection call's form: what keeps every version.
func KeepsAllVersions(from, to xq.Expr) bool {
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
