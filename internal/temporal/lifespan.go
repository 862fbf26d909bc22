// Package temporal implements §5 and the projection functions of §6:
// reconstruction of the temporal view from a fragment store (the
// recursive temporalize), and the interval / version projections that give
// XCQL its windows.
package temporal

import (
	"time"

	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// LifespanOf reads the [vtFrom, vtTo] annotation of a materialized
// element. Elements without an annotation have the default lifespan
// [start, now] (§2: the lifespan of a leaf with no temporal fragment is
// [start,now]; parents derive theirs from children on demand).
func LifespanOf(el *xmldom.Node) xtime.Interval {
	fromStr, okFrom := el.Attr("vtFrom")
	toStr, okTo := el.Attr("vtTo")
	life := xtime.Lifetime()
	if okFrom {
		if dt, err := xtime.Parse(fromStr); err == nil {
			life.From = dt
		}
	}
	if okTo {
		if dt, err := xtime.Parse(toStr); err == nil {
			life.To = dt
		}
	}
	return life
}

// DerivedLifespan computes an element's effective lifespan per §2: its own
// annotation when present; otherwise the minimum interval covering the
// lifespans of its children; [start, now] for unannotated leaves. The
// endpoint comparisons the cover is chosen by are reported to h.
func DerivedLifespan(el *xmldom.Node, at time.Time, h *xtime.Horizon) xtime.Interval {
	if _, ok := el.Attr("vtFrom"); ok {
		return LifespanOf(el)
	}
	var childSpans []xtime.Interval
	for _, c := range el.ElementChildren() {
		childSpans = append(childSpans, DerivedLifespan(c, at, h))
	}
	if cover, ok := xtime.CoverAll(childSpans, at, h); ok {
		return cover
	}
	return xtime.Lifetime()
}
