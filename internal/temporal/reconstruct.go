package temporal

import (
	"fmt"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
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
// value is uncached, unmetered reconstruction.
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
	// Access crosses the holes and charges each crossing; nil is an
	// uncached log scan charging Stats.
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
		fillers := acc.Filler(st, id, true, nil)
		b.MustItems(len(fillers))
		return fillers
	}
	s.AddFillers(st.LookupCost(1)) // the root filler lookup is a pass too
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
// so the walk itself is identical for direct and cached execution. s
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

// Reconstructor is the schema-driven (flattened) reconstruction of §5.1:
// instead of testing every child generically for holes, it precompiles,
// per tag of the Tag Structure, which children are inline and which arrive
// as fillers, and walks fragments with an explicit work list instead of
// per-hole recursion. Behaviour is identical to Temporalize; only the
// mechanics differ (this is the ablation measured in the benchmarks).
type Reconstructor struct {
	structure *tagstruct.Structure
	// holeBearing[tsid] reports whether the tag's subtree can contain a
	// hole at any depth, i.e. whether reconstruction must look inside
	// elements of this tag at all. Subtrees of purely-snapshot tags are
	// adopted wholesale without inspection.
	holeBearing map[int]bool
}

// NewReconstructor compiles the reconstruction plan from the structure.
func NewReconstructor(s *tagstruct.Structure) *Reconstructor {
	bearing := make(map[int]bool, len(s.Tags()))
	var compute func(t *tagstruct.Tag) bool
	compute = func(t *tagstruct.Tag) bool {
		has := false
		for _, c := range t.Children {
			childBears := compute(c)
			if c.IsFragmented() || childBears {
				has = true
			}
		}
		bearing[t.ID] = has
		return has
	}
	compute(s.Root)
	return &Reconstructor{structure: s, holeBearing: bearing}
}

// Materialize builds the temporal view using the compiled plan: an
// explicit work list of (element, tag) pairs in which only hole-bearing
// subtrees are ever entered. It is metered by b: each work item charges
// a step, and spliced fillers charge their cardinality and tree bytes,
// so reconstruction aborts mid-flight when over budget. A nil budget is
// unlimited.
func (r *Reconstructor) Materialize(st *fragment.Store, at time.Time, b *budget.Budget) (*xmldom.Node, error) {
	rootFrag := st.LatestVersion(fragment.RootFillerID, at)
	if rootFrag == nil {
		return nil, fmt.Errorf("temporal: root filler has not arrived")
	}
	if err := b.AddBytes(int64(rootFrag.Tree().TreeSize())); err != nil {
		return nil, err
	}
	// Stored payloads are immutable, so the walk splices into private
	// copies: own(el) gives an element whose child list it may write. Only
	// hole-bearing elements — the spine from the root down to each hole —
	// are ever copied; everything else stays shared with the store.
	own := func(el *xmldom.Node) *xmldom.Node {
		out := el.CloneShallow()
		out.Children = append([]*xmldom.Node(nil), el.Children...)
		return out
	}
	root := own(rootFrag.Tree())
	type item struct {
		el  *xmldom.Node
		tag *tagstruct.Tag
	}
	// seen enforces the resolve-once-per-filler-id rule (see Temporalize);
	// the work list is a stack with children pushed in reverse, so items
	// pop in document order and the two reconstructions agree exactly.
	seen := make(map[int]bool)
	work := []item{{root, r.structure.Root}}
	for len(work) > 0 {
		if err := b.Step(); err != nil {
			return nil, err
		}
		it := work[len(work)-1]
		work = work[:len(work)-1]
		el, tag := it.el, it.tag
		var descend []item
		for i := 0; i < len(el.Children); i++ {
			c := el.Children[i]
			if c.Type != xmldom.ElementNode {
				continue
			}
			if !fragment.IsHole(c) {
				childTag := tag.Child(c.Name)
				if childTag != nil && r.holeBearing[childTag.ID] {
					el.Children[i] = own(c)
					descend = append(descend, item{el.Children[i], childTag})
				}
				continue
			}
			id, err := fragment.HoleID(c)
			if err != nil || seen[id] {
				// drop the hole (unresolvable or already resolved earlier
				// in document order)
				el.Children = append(el.Children[:i], el.Children[i+1:]...)
				i--
				continue
			}
			seen[id] = true
			fillers := st.GetFillers(id, at)
			if err := b.AddItems(len(fillers)); err != nil {
				return nil, err
			}
			var fillerBytes int64
			for _, f := range fillers {
				fillerBytes += int64(f.TreeSize())
			}
			if err := b.AddBytes(fillerBytes); err != nil {
				return nil, err
			}
			fillerTag := r.structure.ByID(fragment.HoleTSID(c))
			if fillerTag != nil && r.holeBearing[fillerTag.ID] {
				for j, f := range fillers {
					fillers[j] = own(f)
					descend = append(descend, item{fillers[j], fillerTag})
				}
			}
			// splice fillers in place of the hole
			el.Children = append(el.Children[:i], append(fillers, el.Children[i+1:]...)...)
			i += len(fillers) - 1
		}
		for i := len(descend) - 1; i >= 0; i-- {
			work = append(work, descend[i])
		}
	}
	return root, nil
}
