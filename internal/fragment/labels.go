package fragment

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xcql/internal/xmldom"
)

// Label is a Dewey-style prefix label: the slot path from the root
// filler down to a filler, one component per hole level. Lexicographic
// order over labels (shorter prefix first) is exactly preorder document
// order, which is what lets the QaC++ plan assemble results without ever
// walking a hole: the order is already in the label.
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

// LabelIndex is the QaC++ access path: per-filler version groups and the
// per-tsid filler lists, plus every filler's Dewey prefix label, all
// derived from one snapshot of the fragment log. The index is immutable
// once built and memoized on the store stamped with the ingest
// generation read BEFORE the snapshot, so a racing Add makes the memo
// stale rather than ever serving post-ingest data as pre-ingest (the
// same rule the materialization cache follows).
//
// The reads a query issues (Fillers, FillersList, FillersByTSID) need
// only the groups, whose order the snapshot already fixes; the labels
// themselves — and the document order they spell — are minted from the
// same snapshot on first request (LabelOf, DocOrderFIDs, Labeled), so an
// index rebuilt after every write costs and retains only what reads use.
// Stored payloads are immutable, so minting later reads exactly what
// minting at build time would have.
//
// Labels are assigned by a breadth-first walk from the root filler:
// within one parent, the distinct child hole ids get consecutive slots
// in the order the holes first appear across the parent's versions
// (validTime order, preorder within each payload). Because the walk
// reads the version-ordered groups — not the arrival order — reordered
// or duplicated arrivals produce the same labels as document-order
// ingest. Orphans (fillers never announced by any reachable hole) stay
// unlabeled but remain served by the version and tsid lookups, so
// label-served reads return exactly what the log-backed reads return.
type LabelIndex struct {
	st  *Store
	gen uint64

	versions map[int][]*Fragment // fid -> versions in validTime order
	byTSID   map[int][]int       // tsid -> distinct fids ascending
	total    int                 // distinct fillers stored

	mint     sync.Once     // guards labels and docOrder
	labels   map[int]Label // fid -> label (reachable fillers only)
	docOrder []int         // labeled fids in label (document) order
}

// Labels returns the store's label index, rebuilding it only when the
// ingest generation has moved since the last build. Concurrent callers
// may race to build; every built index is correct for the generation it
// is stamped with, so the race is benign.
func (st *Store) Labels() *LabelIndex {
	gen := st.gen.Load()
	if idx := st.labelIdx.Load(); idx != nil && idx.gen == gen {
		return idx
	}
	idx := st.buildLabels(gen)
	st.labelIdx.Store(idx)
	return idx
}

// buildLabels snapshots the fragment log into the index's groups. gen
// must be the generation read before the snapshot.
func (st *Store) buildLabels(gen uint64) *LabelIndex {
	st.mu.RLock()
	log := make([]*Fragment, len(st.log))
	copy(log, st.log)
	st.mu.RUnlock()

	idx := &LabelIndex{
		st:       st,
		gen:      gen,
		versions: make(map[int][]*Fragment),
		byTSID:   make(map[int][]int),
	}
	tsidSeen := make(map[int]map[int]bool)
	for _, f := range log {
		idx.versions[f.FillerID] = append(idx.versions[f.FillerID], f)
		if tsidSeen[f.TSID] == nil {
			tsidSeen[f.TSID] = make(map[int]bool)
		}
		if !tsidSeen[f.TSID][f.FillerID] {
			tsidSeen[f.TSID][f.FillerID] = true
			idx.byTSID[f.TSID] = append(idx.byTSID[f.TSID], f.FillerID)
		}
	}
	idx.total = len(idx.versions)
	for _, group := range idx.versions {
		sort.SliceStable(group, func(i, j int) bool { return group[i].ValidTime.Before(group[j].ValidTime) })
	}
	for _, fids := range idx.byTSID {
		sort.Ints(fids)
	}
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
	if _, ok := idx.versions[RootFillerID]; ok {
		idx.labels[RootFillerID] = Label{}
		queue := []int{RootFillerID}
		for len(queue) > 0 {
			parent := queue[0]
			queue = queue[1:]
			base := idx.labels[parent]
			slot := uint32(0)
			seen := make(map[int]bool)
			for _, v := range idx.versions[parent] {
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
						if _, stored := idx.versions[hid]; stored {
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
		if _, stored := idx.versions[fid]; stored {
			idx.docOrder = append(idx.docOrder, fid)
		}
	}
	sort.Slice(idx.docOrder, func(i, j int) bool {
		return idx.labels[idx.docOrder[i]].Compare(idx.labels[idx.docOrder[j]]) < 0
	})
}

// Generation returns the store generation the index was built against.
func (idx *LabelIndex) Generation() uint64 { return idx.gen }

// Size is the number of distinct fillers the index covers (labeled or
// not).
func (idx *LabelIndex) Size() int { return idx.total }

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

// Fillers serves get_fillers from the index: one annotated element per
// version of fid visible at the evaluation instant that keep lets through,
// and the number of versions examined. Byte-identical to Store.GetFillers,
// with zero log scans.
func (idx *LabelIndex) Fillers(fid int, at time.Time, keep Filter) ([]*xmldom.Node, int) {
	return idx.st.annotateFiller(idx.versions[fid], at, keep)
}

// FillersList serves get_fillers_list from the index: the id set
// concatenated in input order, duplicates contributing only at their
// first position — byte-identical to Store.GetFillersList.
func (idx *LabelIndex) FillersList(fids []int, at time.Time, keep Filter) ([]*xmldom.Node, int) {
	seen := make(map[int]bool, len(fids))
	first := make([]int, 0, len(fids))
	for _, fid := range fids {
		if !seen[fid] {
			seen[fid] = true
			first = append(first, fid)
		}
	}
	return idx.fillersOf(first, at, keep)
}

// FillersByTSID serves the descendant jump from the index: every stored
// filler under tsid, grouped by filler id ascending — byte-identical to
// Store.GetFillersByTSID (orphans included, so reordered histories
// replay identically).
func (idx *LabelIndex) FillersByTSID(tsid int, at time.Time, keep Filter) ([]*xmldom.Node, int) {
	return idx.fillersOf(idx.byTSID[tsid], at, keep)
}

// fillersOf is one read of the version groups of distinct fillers.
func (idx *LabelIndex) fillersOf(fids []int, at time.Time, keep Filter) ([]*xmldom.Node, int) {
	return idx.st.annotateEach(len(fids), func(i int) []*Fragment { return idx.versions[fids[i]] }, at, keep)
}

// VersionCount returns how many versions of fid the index holds.
func (idx *LabelIndex) VersionCount(fid int) int { return len(idx.versions[fid]) }

// TSIDCensus reports the distinct fillers and total stored versions
// under tsid — the label-path cost prediction EXPLAIN uses.
func (idx *LabelIndex) TSIDCensus(tsid int) (fillers, versions int) {
	for _, fid := range idx.byTSID[tsid] {
		versions += len(idx.versions[fid])
	}
	return len(idx.byTSID[tsid]), versions
}
