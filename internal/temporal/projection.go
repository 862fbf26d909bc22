package temporal

import (
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// HoleResolver maps a hole id to the versions of its fillers (annotated
// with vtFrom/vtTo); nil when projecting over an already materialized
// view, which contains no holes.
type HoleResolver func(holeID int) []*xmldom.Node

// AccessResolver crosses the holes of one store's fragments through an
// access path, which charges every crossing the way its index pays for
// it.
func AccessResolver(acc fragment.Access, st *fragment.Store) HoleResolver {
	return func(holeID int) []*xmldom.Node {
		els, _ := acc.Read(st, fragment.Read{Source: fragment.FromHole, ID: holeID})
		return els
	}
}

// BudgetResolver wraps a HoleResolver so every hole expansion charges
// the budget: one step per resolution (which also polls cancellation),
// plus the cardinality and tree bytes of the returned filler versions.
// This is what meters the QaC/QaC+ get_fillers walks and projection-time
// hole crossing: a query that keeps pulling fillers trips its budget by
// panicking with the *budget.ResourceError, contained at the engine
// boundary. A nil budget or resolver passes through unchanged.
func BudgetResolver(b *budget.Budget, inner HoleResolver) HoleResolver {
	if b == nil || inner == nil {
		return inner
	}
	return func(holeID int) []*xmldom.Node {
		b.MustStep()
		els := inner(holeID)
		b.MustItems(len(els))
		var n int64
		for _, el := range els {
			n += int64(el.TreeSize())
		}
		b.MustBytes(n)
		return els
	}
}

// IntervalProjection implements e?[tb,te] (§6, interval_projection): it
// keeps the elements whose lifespan intersects [tb, te], clips every kept
// lifespan to the intersection, recurses into children, and resolves holes
// through the resolver on the way. Elements without a lifespan annotation
// are kept and recursed into unchanged. The inputs are not modified, and
// the projection is copy-on-write: a subtree with no hole to expand and no
// lifespan to clip or drop is returned as is, shared with the input; only
// the spine above a change is rebuilt.
//
// It is the identity e?[start,now] that gives unprojected expressions
// their semantics, so tb > te simply yields the empty sequence.
//
// Every comparison of a lifespan endpoint with a window bound is reported
// to h (nil reports nothing): with the store unchanged, the projection of
// the same input changes only when one of them does. A clipped endpoint
// that takes a moving bound's value is written symbolically ("now-PT1H"),
// so it does not change in between.
func IntervalProjection(els []*xmldom.Node, window xtime.Interval, at time.Time, h *xtime.Horizon, resolve HoleResolver) []*xmldom.Node {
	var out []*xmldom.Node
	for _, el := range els {
		out = appendProjected(out, el, window, at, h, resolve)
	}
	return out
}

// appendProjected appends el's projection to out: the projections of every
// version of its fillers when el is a hole, else at most one element.
func appendProjected(out []*xmldom.Node, el *xmldom.Node, window xtime.Interval, at time.Time, h *xtime.Horizon, resolve HoleResolver) []*xmldom.Node {
	if el == nil || el.Type != xmldom.ElementNode {
		return out
	}
	if fragment.IsHole(el) {
		if resolve == nil {
			return out
		}
		id, err := fragment.HoleID(el)
		if err != nil {
			return out
		}
		for _, f := range resolve(id) {
			out = appendProjected(out, f, window, at, h, resolve)
		}
		return out
	}
	if p := projectElement(el, window, at, h, resolve); p != nil {
		out = append(out, p)
	}
	return out
}

// projectElement projects one non-hole element: nil when its lifespan
// misses the window, el itself when neither its lifespan nor anything
// below it changes, a rebuilt element otherwise.
func projectElement(el *xmldom.Node, window xtime.Interval, at time.Time, h *xtime.Horizon, resolve HoleResolver) *xmldom.Node {
	from, hasFrom := el.Attr("vtFrom")
	if !hasFrom {
		// snapshot element: keep, project children
		return ProjectBelow(el, window, at, h, resolve)
	}
	life := LifespanOf(el)
	clipped, ok := life.Intersect(window, at, h)
	if !ok {
		return nil
	}
	kids, changed := projectChildren(el, window, at, h, resolve)
	to, _ := el.Attr("vtTo")
	sameFrom, clipFrom := spelledAs(clipped.From, from)
	sameTo, clipTo := spelledAs(clipped.To, to)
	if !changed && sameFrom && sameTo {
		return el
	}
	out := el.CloneShallow()
	out.SetAttr("vtFrom", clipFrom)
	out.SetAttr("vtTo", clipTo)
	out.Children = kids
	return out
}

// spelledAs reports whether d's spelling (DateTime.String) is s, and the
// spelling: an absolute instant is spelled on the stack, and becomes a
// string only when it differs from s.
func spelledAs(d xtime.DateTime, s string) (bool, string) {
	if !d.IsAbsolute() {
		spelled := d.String()
		return spelled == s, spelled
	}
	var buf [2 * len(xtime.Layout)]byte
	if spelled := d.AppendTo(buf[:0]); string(spelled) != s {
		return false, string(spelled)
	}
	return true, s
}

// ProjectBelow projects what lies below el, and not el's own lifespan: el
// itself when nothing below it changes, else a shallow copy of el holding
// its projected children. It is the part of the projection a read under a
// lifespan bound (fragment.Span) leaves: the read keeps and stamps each
// version as the projection would, and its children are projected here.
func ProjectBelow(el *xmldom.Node, window xtime.Interval, at time.Time, h *xtime.Horizon, resolve HoleResolver) *xmldom.Node {
	kids, changed := projectChildren(el, window, at, h, resolve)
	if !changed {
		return el
	}
	out := el.CloneShallow()
	out.Children = kids
	return out
}

// Settled reports that nothing below el is a hole or carries a lifespan
// stamp: ProjectBelow returns el itself under every window.
func Settled(el *xmldom.Node) bool {
	for _, c := range el.Children {
		if c.Type != xmldom.ElementNode {
			continue
		}
		if _, stamped := c.Attr("vtFrom"); stamped || fragment.IsHole(c) || !Settled(c) {
			return false
		}
	}
	return true
}

// projectChildren projects src's children. While every child projects to
// itself it allocates nothing; when all do it returns src's own child list
// (capacity clipped) and changed=false. From the first difference on, kids
// is a new list, unchanged children shared with src.
func projectChildren(src *xmldom.Node, window xtime.Interval, at time.Time, h *xtime.Horizon, resolve HoleResolver) (kids []*xmldom.Node, changed bool) {
	kids = src.Children[:len(src.Children):len(src.Children)]
	for i, c := range src.Children {
		var p *xmldom.Node
		switch {
		case c.Type != xmldom.ElementNode:
			p = c
		case !fragment.IsHole(c):
			p = projectElement(c, window, at, h, resolve)
		}
		if p == c && !changed {
			continue
		}
		if !changed {
			changed = true
			kids = append(make([]*xmldom.Node, 0, len(src.Children)), src.Children[:i]...)
		}
		if fragment.IsHole(c) {
			kids = appendProjected(kids, c, window, at, h, resolve)
		} else if p != nil {
			kids = append(kids, p)
		}
	}
	return kids, changed
}

// VersionProjection implements e#[vb,ve] (§6, version_projection): the
// input sequence is interpreted as the version history of one element
// (position = version number, 1-based); versions with positions inside the
// window are kept, and each kept version's children are interval-projected
// to that version's own lifespan, resolving holes along the way. A
// snapshot input (no lifespan annotation) counts as a single version.
func VersionProjection(els []*xmldom.Node, window xtime.VersionInterval, at time.Time, h *xtime.Horizon, resolve HoleResolver) []*xmldom.Node {
	lo, hi := window.Bounds(len(els))
	var out []*xmldom.Node
	for pos := lo; pos <= hi; pos++ {
		el := els[pos-1]
		out = appendProjected(out, el, LifespanOf(el), at, h, resolve)
	}
	return out
}
