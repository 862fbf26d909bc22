package fragment

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"xcql/internal/xmldom"
)

// Label is a Dewey-style prefix label: the slot path from the root
// filler down to a filler, one component per hole level. Lexicographic
// order over labels (shorter prefix first) is exactly preorder document
// order: a plan that needs it can have it without walking a hole.
type Label []uint32

// Compare orders labels lexicographically with a shorter prefix first —
// preorder document order. It returns -1, 0 or +1.
func (l Label) Compare(o Label) int {
	n := len(l)
	if len(o) < n {
		n = len(o)
	}
	for i := 0; i < n; i++ {
		switch {
		case l[i] < o[i]:
			return -1
		case l[i] > o[i]:
			return 1
		}
	}
	switch {
	case len(l) < len(o):
		return -1
	case len(l) > len(o):
		return 1
	}
	return 0
}

// HasPrefix reports whether p labels an ancestor-or-self of l: the
// label-range containment test behind descendant steps.
func (l Label) HasPrefix(p Label) bool {
	if len(p) > len(l) {
		return false
	}
	for i, c := range p {
		if l[i] != c {
			return false
		}
	}
	return true
}

// String renders the label in the usual dotted Dewey notation; the root
// filler's empty label renders as "ε".
func (l Label) String() string {
	if len(l) == 0 {
		return "ε"
	}
	parts := make([]string, len(l))
	for i, c := range l {
		parts[i] = strconv.FormatUint(uint64(c), 10)
	}
	return strings.Join(parts, ".")
}

// LabelIndex holds the Dewey prefix label of every filler reachable from
// the root, and the document order the labels spell, for one generation of
// a store. It stores no fragment: reads — QaC++'s included — go to the
// store's index, and the labels are minted from that index, as it stands
// then, on first request (LabelOf, DocOrderFIDs, Labeled). It is memoized
// on the store stamped with the ingest generation read BEFORE anything
// else is, so a write that comes before the minting makes the memo stale
// rather than ever passing post-ingest labels off as pre-ingest (the rule
// the materialization cache follows).
//
// Labels are assigned by a breadth-first walk from the root filler:
// within one parent, the distinct child hole ids get consecutive slots
// in the order the holes first appear across the parent's versions
// (validTime order, preorder within each payload). Because the walk
// reads the version-ordered groups — not the arrival order — reordered
// or duplicated arrivals produce the same labels as document-order
// ingest. Orphans (fillers never announced by any reachable hole) stay
// unlabeled; the store's index serves them all the same.
type LabelIndex struct {
	st  *Store
	gen uint64

	mint     sync.Once     // guards labels and docOrder
	labels   map[int]Label // fid -> label (reachable fillers only)
	docOrder []int         // labeled fids in label (document) order
}

// Labels returns the store's label index, a new one only when the ingest
// generation has moved since the last. Concurrent callers may race to make
// one; each is correct for the generation it is stamped with, so the race
// is benign.
func (st *Store) Labels() *LabelIndex {
	gen := st.gen.Load()
	if idx := st.labelIdx.Load(); idx != nil && idx.gen == gen {
		return idx
	}
	idx := &LabelIndex{st: st, gen: gen}
	st.labelIdx.Store(idx)
	return idx
}

// mintLabels assigns the labels and derives the document order, once.
func (idx *LabelIndex) mintLabels() {
	idx.mint.Do(idx.doMintLabels)
}

func (idx *LabelIndex) doMintLabels() {
	idx.labels = make(map[int]Label)
	// BFS from the root: label parents before children so every child
	// label extends an already-final parent label.
	if len(idx.st.Versions(RootFillerID)) > 0 {
		idx.labels[RootFillerID] = Label{}
		queue := []int{RootFillerID}
		for len(queue) > 0 {
			parent := queue[0]
			queue = queue[1:]
			base := idx.labels[parent]
			slot := uint32(0)
			seen := make(map[int]bool)
			for _, v := range idx.st.Versions(parent) {
				if v.Payload == nil {
					continue
				}
				v.Payload.Walk(func(n *xmldom.Node) bool {
					if !IsHole(n) {
						return true
					}
					hid, err := HoleID(n)
					if err != nil || seen[hid] {
						return false
					}
					seen[hid] = true
					// the slot is consumed even when another parent already
					// labeled the child: first label wins, slots stay dense
					// per parent
					lbl := make(Label, len(base)+1)
					copy(lbl, base)
					lbl[len(base)] = slot
					slot++
					if _, dup := idx.labels[hid]; !dup {
						idx.labels[hid] = lbl
						if len(idx.st.Versions(hid)) > 0 {
							queue = append(queue, hid)
						}
					}
					return false // holes carry no children worth descending into
				})
			}
		}
	}
	idx.docOrder = make([]int, 0, len(idx.labels))
	for fid := range idx.labels {
		if len(idx.st.Versions(fid)) > 0 {
			idx.docOrder = append(idx.docOrder, fid)
		}
	}
	sort.Slice(idx.docOrder, func(i, j int) bool {
		return idx.labels[idx.docOrder[i]].Compare(idx.labels[idx.docOrder[j]]) < 0
	})
}

// Generation returns the store generation the index was built against.
func (idx *LabelIndex) Generation() uint64 { return idx.gen }

// Labeled is the number of fillers reachable from the root and hence
// carrying a label.
func (idx *LabelIndex) Labeled() int {
	idx.mintLabels()
	return len(idx.labels)
}

// LabelOf returns a filler's label; ok is false for orphans and unknown
// ids.
func (idx *LabelIndex) LabelOf(fid int) (Label, bool) {
	idx.mintLabels()
	l, ok := idx.labels[fid]
	return l, ok
}

// DocOrderFIDs lists the labeled (stored) filler ids in label order —
// document order, derived without a single hole walk.
func (idx *LabelIndex) DocOrderFIDs() []int {
	idx.mintLabels()
	out := make([]int, len(idx.docOrder))
	copy(out, idx.docOrder)
	return out
}
