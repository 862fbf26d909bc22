package temporal

import (
	"fmt"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
)

// Temporalize materializes the full temporal view from the store at the
// evaluation instant: the paper's recursive temporalize function (§5).
// Every hole is replaced by the sequence of all its fillers' versions,
// each annotated with its deduced [vtFrom, vtTo]; the recursion continues
// into the fillers because holes can appear anywhere down the chain.
//
// The store is not modified, and the view is built copy-on-write: only
// elements with a hole somewhere below them are rebuilt, every hole-free
// subtree of a stored payload is shared with the store as is. Like every
// node that leaves the store the view is read-only. A missing root filler
// yields an error (the stream has not delivered its initial document yet).
//
// Each filler id is resolved exactly once, at its first reference in
// document order: when a container element has several versions that all
// carry the same hole (an update that kept referring to existing
// children), the child appears under the earliest version rather than
// being duplicated per version. This keeps the view — and therefore all
// three query plans — consistent about element identity.
func Temporalize(st *fragment.Store, at time.Time) (*xmldom.Node, error) {
	return TemporalizeWith(st, at, TemporalizeOptions{})
}

// TemporalizeOptions configures TemporalizeWith beyond the instant:
// metering and the access path the holes are crossed through. The zero
// value is unmetered reconstruction through a log scan.
type TemporalizeOptions struct {
	// Budget meters the walk: every element of the view charges a step
	// and its shallow bytes — the logical size, whether the element was
	// rebuilt or shared — and every resolution its cardinality, so an
	// oversized materialization aborts mid-reconstruction with a
	// *budget.ResourceError instead of exhausting memory first. nil is
	// unlimited.
	Budget *budget.Budget
	// Stats collects the root lookup and every rebuilt element — this is
	// how the CaQ plan's whole-document construction shows up in
	// EvalStats; nil collects nothing.
	Stats *obs.EvalStats
	// Access crosses the holes and charges each crossing; nil is a log
	// scan charging Stats.
	Access fragment.Access
}

// TemporalizeWith is the configurable temporalize. Whatever the options,
// the returned view is byte-identical to Temporalize's.
func TemporalizeWith(st *fragment.Store, at time.Time, opts TemporalizeOptions) (view *xmldom.Node, err error) {
	root := st.LatestVersion(fragment.RootFillerID, at)
	if root == nil {
		return nil, fmt.Errorf("temporal: root filler has not arrived")
	}
	b, s, acc := opts.Budget, opts.Stats, opts.Access
	if acc == nil {
		acc = fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: at, Stats: s})
	}
	defer func() {
		if p := recover(); p != nil {
			if re, ok := p.(*budget.ResourceError); ok {
				view, err = nil, re
				return
			}
			panic(p)
		}
	}()
	resolve := func(id int) []*xmldom.Node {
		fillers, _ := acc.Read(st, fragment.Read{Source: fragment.FromHole, ID: id})
		b.MustItems(len(fillers))
		return fillers
	}
	s.AddFillers(st.PassCost(1, 1)) // the root filler lookup is a pass too
	return FillHoles(resolve, root.Tree(), make(map[int]bool), b, s), nil
}

// FillHoles returns el with the holes below it replaced by their fillers'
// versions, recursively, resolving each filler id once per seen map: el
// itself when there is no hole, a rebuilt element over shared unchanged
// children otherwise. It is the paper's temporalize/get_fillers pair and
// also the final Materialize step of a query result. The walk charges b
// (nil is unlimited) per element visited and aborts by panicking with the
// *budget.ResourceError, which the engine boundary contains. Hole
// resolution — and its cardinality/stats charging — lives in the resolver,
// so the walk itself is identical whichever access path resolves. s
// counts the elements actually rebuilt.
func FillHoles(resolve HoleResolver, el *xmldom.Node, seen map[int]bool, b *budget.Budget, s *obs.EvalStats) *xmldom.Node {
	b.MustStep()
	b.MustBytes(int64(el.ShallowSize()))
	var kids []*xmldom.Node
	changed := false
	for i, c := range el.Children {
		p := c
		hole := fragment.IsHole(c)
		if hole {
			p = nil
		} else if c.Type == xmldom.ElementNode {
			p = FillHoles(resolve, c, seen, b, s)
		}
		if p == c && !changed {
			continue
		}
		if !changed {
			changed = true
			kids = append(make([]*xmldom.Node, 0, len(el.Children)), el.Children[:i]...)
		}
		if !hole {
			kids = append(kids, p)
			continue
		}
		id, err := fragment.HoleID(c)
		if err != nil || seen[id] {
			continue
		}
		seen[id] = true
		for _, filler := range resolve(id) {
			kids = append(kids, FillHoles(resolve, filler, seen, b, s))
		}
	}
	if !changed {
		return el
	}
	s.AddNodes(1)
	out := el.CloneShallow()
	out.Children = kids
	return out
}
