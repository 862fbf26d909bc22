package fragment

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// Store is the client-side fragment repository: every filler that has
// arrived, indexed by filler id (versions, validTime order) and by tsid
// (the QaC+ fast path). It is safe for concurrent readers with one or
// more writers, so continuous queries can evaluate while fragments arrive.
type Store struct {
	structure *tagstruct.Structure
	// scan disables the hash indexes: every lookup walks the append-only
	// fragment log, reproducing the cost model of the paper's evaluation
	// substrate, where get_fillers was a predicate scan over a flat
	// fragments.xml document. NewScanStore sets it.
	scan bool

	mu     sync.RWMutex
	log    []*Fragment         // arrival order (always kept)
	wire   []*xmldom.Node      // scan mode: the <filler> wire elements
	byID   map[int][]*Fragment // versions sorted by validTime, then arrival
	byTSID map[int][]*Fragment // arrival order
	count  int

	// gen counts successful Adds. The materialization cache stamps every
	// entry with the generation read BEFORE the resolving lookup, so any
	// ingest racing the fill makes the entry stale rather than ever
	// marking post-ingest data as pre-ingest. Duplicate or reordered
	// frames the stream client drops never reach Add, so they advance
	// nothing and cannot re-validate (or resurrect) cache entries.
	gen atomic.Uint64

	// wal, when set, receives every fragment after validation and before
	// it becomes queryable — the write-ahead rule: an error keeps the
	// fragment out of memory entirely and fails the Add.
	wal func(*Fragment) error

	// labelIdx memoizes the Dewey prefix-label index (the QaC++ access
	// path). It is stamped with the store generation at build time and
	// rebuilt on demand when the generation has moved — the same
	// stale-safe invalidation rule the materialization cache uses.
	labelIdx atomic.Pointer[LabelIndex]
}

// NewStore returns an empty indexed store for the given tag structure.
func NewStore(s *tagstruct.Structure) *Store {
	return &Store{
		structure: s,
		byID:      make(map[int][]*Fragment),
		byTSID:    make(map[int][]*Fragment),
	}
}

// NewScanStore returns a store whose per-filler and per-tsid lookups scan
// the whole fragment log as stored XML, evaluating the paper's
// doc("fragments.xml")/fragments/filler[@id=$fid] predicate against each
// <filler> element's attributes. The Figure-4 benchmarks use it to
// reproduce the published cost shape; production clients should use
// NewStore.
func NewScanStore(s *tagstruct.Structure) *Store {
	st := NewStore(s)
	st.scan = true
	return st
}

// Scanning reports whether the store is in linear-scan mode.
func (st *Store) Scanning() bool { return st.scan }

// Structure returns the tag structure the store was built for.
func (st *Store) Structure() *tagstruct.Structure { return st.structure }

// Add ingests one fragment. The tsid must exist in the tag structure and,
// except for the root filler, must belong to a fragmented tag.
func (st *Store) Add(f *Fragment) error {
	tag := st.structure.ByID(f.TSID)
	if tag == nil {
		return fmt.Errorf("fragment: unknown tsid %d on filler %d", f.TSID, f.FillerID)
	}
	if f.FillerID != RootFillerID && !tag.IsFragmented() {
		return fmt.Errorf("fragment: filler %d carries snapshot tag %q", f.FillerID, tag.Name)
	}
	if f.Payload == nil {
		return fmt.Errorf("fragment: filler %d has no payload", f.FillerID)
	}
	if f.Payload.Name != tag.Name {
		return fmt.Errorf("fragment: filler %d payload <%s> does not match tag %q (tsid %d)",
			f.FillerID, f.Payload.Name, tag.Name, f.TSID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.wal != nil {
		// write-ahead: the fragment is durable before it is queryable. The
		// append runs under the store lock so the log's order is exactly
		// the ingest order every reader observed.
		if err := st.wal(f); err != nil {
			return fmt.Errorf("fragment: wal append for filler %d: %w", f.FillerID, err)
		}
	}
	st.log = append(st.log, f)
	if st.scan {
		st.wire = append(st.wire, f.ToXML())
	} else {
		versions := st.byID[f.FillerID]
		// insert keeping validTime order; ties keep arrival order (stable)
		i := sort.Search(len(versions), func(i int) bool {
			return versions[i].ValidTime.After(f.ValidTime)
		})
		versions = append(versions, nil)
		copy(versions[i+1:], versions[i:])
		versions[i] = f
		st.byID[f.FillerID] = versions
		st.byTSID[f.TSID] = append(st.byTSID[f.TSID], f)
	}
	st.count++
	st.gen.Add(1)
	return nil
}

// Generation returns the store's ingest generation: a counter that
// advances on every successful Add and never regresses. Cache layers
// compare it to decide whether a memoized resolution still reflects the
// store's contents.
func (st *Store) Generation() uint64 { return st.gen.Load() }

// SetWAL installs (or clears, with nil) the store's write-ahead hook.
// It must be set before ingestion starts; fragments already in memory
// are not retroactively logged. The hook is called under the store's
// write lock, so it must not call back into the store.
func (st *Store) SetWAL(wal func(*Fragment) error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.wal = wal
}

// AdvanceGeneration bumps the ingest generation without adding a
// fragment. Recovery paths call it after rebuilding a store from a
// durable log so that cache entries memoized against the pre-crash
// store object can never be served against the recovered contents.
func (st *Store) AdvanceGeneration() { st.gen.Add(1) }

// AddAll ingests fragments in order, stopping at the first error.
func (st *Store) AddAll(fs []*Fragment) error {
	for _, f := range fs {
		if err := st.Add(f); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of fragments ingested.
func (st *Store) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.count
}

// Versions returns the stored versions for a filler id in validTime order.
// The returned slice is a copy; the fragments are shared and must not be
// mutated.
func (st *Store) Versions(fillerID int) []*Fragment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.scan {
		out := st.scanBy(AttrID, fillerID)
		sort.SliceStable(out, func(i, j int) bool { return out[i].ValidTime.Before(out[j].ValidTime) })
		return out
	}
	vs := st.byID[fillerID]
	out := make([]*Fragment, len(vs))
	copy(out, vs)
	return out
}

// ByTSID returns every stored fragment with the given tsid in arrival
// order — the QaC+ access path.
func (st *Store) ByTSID(tsid int) []*Fragment {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.scan {
		return st.scanBy(AttrTSID, tsid)
	}
	fs := st.byTSID[tsid]
	out := make([]*Fragment, len(fs))
	copy(out, fs)
	return out
}

// scanBy walks the stored <filler> wire elements evaluating the attribute
// predicate per element — the paper's filler[@attr=value] access path.
// Callers must hold at least a read lock.
func (st *Store) scanBy(attr string, value int) []*Fragment {
	var out []*Fragment
	for i, el := range st.wire {
		v, ok := el.Attr(attr)
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n != value {
			continue
		}
		out = append(out, st.log[i])
	}
	return out
}

// LookupCost reports how many stored filler versions one lookup pass
// examined: the whole fragment log under the scan cost model (the
// paper's predicate scan evaluates its filter against every <filler>
// element), or just the returned versions on the indexed store. The
// observability layer charges this per store pass so EvalStats'
// FillersScanned reproduces the access cost Figure 4 measures.
func (st *Store) LookupCost(returned int) int {
	if st.scan {
		return st.Len()
	}
	return returned
}

// Root returns the latest version of the root filler, or nil before it
// arrives.
func (st *Store) Root() *Fragment {
	vs := st.Versions(RootFillerID)
	if len(vs) == 0 {
		return nil
	}
	return vs[len(vs)-1]
}

// GetFillers is the paper's get_fillers function (§5): it returns, for a
// hole id, one element per stored version, annotated with its deduced
// lifespan. For temporal tags version k spans [validTime(k),
// validTime(k+1)) — encoded vtTo="now" on the last version; for event
// tags each version is the point [validTime, validTime]. Each element is a
// new top node — its own attributes, the lifespan stamped on them — whose
// children are the stored payload's, shared and immutable, embedded holes
// included, so callers can keep navigating. A read therefore costs
// O(versions) allocations whatever the payloads' size.
//
// Versions with validTime after the evaluation instant `at` are invisible
// (they have not "happened" yet from the query's standpoint).
func (st *Store) GetFillers(fillerID int, at time.Time) []*xmldom.Node {
	out, _ := st.annotateFiller(st.Versions(fillerID), at, nil)
	return out
}

// Filter decides, from a version's stored payload, whether a read returns
// the version. A read evaluates it before the version's top element
// exists, so a version it turns away costs the read no allocation; it is
// still a version the read examined, and is charged as one. The filter
// must read only what a payload and its lifespan-stamped top element have
// in common — never vtFrom or vtTo — because a cached read applies it to
// the cached tops instead. nil keeps every version.
type Filter func(payload *xmldom.Node) bool

// Sift returns the elements the filter keeps: the filter applied to
// versions that are built already.
func (keep Filter) Sift(els []*xmldom.Node) []*xmldom.Node {
	if keep == nil {
		return els
	}
	var out []*xmldom.Node
	for _, el := range els {
		if keep(el) {
			out = append(out, el)
		}
	}
	return out
}

// annotateVersions appends to out the annotated top element of each
// version visible at the evaluation instant that keep lets through,
// stamped with its deduced [vtFrom, vtTo], and reports how many visible
// versions it examined. versions must be one filler id's versions in
// validTime order. The instants are rendered into the read's one buffer:
// a read pays a few allocations for them, not one or two per version.
func (st *Store) annotateVersions(out []*xmldom.Node, versions []*Fragment, at time.Time, keep Filter, instants *strings.Builder) ([]*xmldom.Node, int) {
	examined := 0
	next := "" // the next version's vtFrom, already rendered as this one's vtTo
	for i, f := range versions {
		if f.ValidTime.After(at) {
			break
		}
		examined++
		from := next
		next = ""
		if keep != nil && !keep(f.Payload) {
			continue
		}
		if from == "" {
			from = renderInstant(instants, f.ValidTime)
		}
		to := "now"
		if tag := st.structure.ByID(f.TSID); tag != nil && tag.Type == tagstruct.Event {
			to = from
		} else if i+1 < len(versions) && !versions[i+1].ValidTime.After(at) {
			next = renderInstant(instants, versions[i+1].ValidTime)
			to = next
		}
		out = append(out, lifespanTop(f.Payload, from, to))
	}
	return out, examined
}

// renderInstant spells t the way the wire does, at the end of b, and
// returns the spelling as a substring of what b holds: b never rewrites
// what it has handed out, so one buffer serves every version of a read
// where time.Format would allocate once per call.
func renderInstant(b *strings.Builder, t time.Time) string {
	var spelled [len(xtime.Layout)]byte
	start := b.Len()
	if b.Cap()-start < len(spelled) {
		b.Grow(max(len(spelled), start)) // a filtered read: double as versions are kept
	}
	b.Write(t.UTC().AppendFormat(spelled[:0], xtime.Layout))
	return b.String()[start:]
}

// lifespanTop builds the top element a read returns for a stored payload:
// the payload's name, its attributes with the lifespan stamped on them, and
// its children, shared.
func lifespanTop(p *xmldom.Node, from, to string) *xmldom.Node {
	attrs := make([]xmldom.Attr, len(p.Attrs), len(p.Attrs)+2)
	copy(attrs, p.Attrs)
	kids := p.Children
	el := &xmldom.Node{
		Type:  p.Type,
		Name:  p.Name,
		Attrs: attrs,
		// capacity clipped: an append to the new top must reallocate, never
		// write the spare capacity of the stored payload's array
		Children: kids[:len(kids):len(kids)],
	}
	el.SetAttr("vtFrom", from)
	el.SetAttr("vtTo", to)
	return el
}

// annotateEach is one read's annotateVersions over its n version groups,
// group(i) the i-th (nil for none). Without a filter every visible version
// is built and renders at most one instant, so the read sizes its output
// and its instants once; with one, both grow as versions are kept.
func (st *Store) annotateEach(n int, group func(int) []*Fragment, at time.Time, keep Filter) (out []*xmldom.Node, examined int) {
	var instants strings.Builder
	if keep == nil {
		total := 0
		for i := 0; i < n; i++ {
			total += len(group(i))
		}
		out = make([]*xmldom.Node, 0, total)
		instants.Grow(total * len(xtime.Layout))
	}
	for i := 0; i < n; i++ {
		var seen int
		out, seen = st.annotateVersions(out, group(i), at, keep, &instants)
		examined += seen
	}
	return out, examined
}

// annotateFiller is annotateEach for a read of one filler.
func (st *Store) annotateFiller(versions []*Fragment, at time.Time, keep Filter) ([]*xmldom.Node, int) {
	return st.annotateEach(1, func(int) []*Fragment { return versions }, at, keep)
}

// annotateGroups is annotateEach over a list of version groups.
func (st *Store) annotateGroups(groups [][]*Fragment, at time.Time, keep Filter) ([]*xmldom.Node, int) {
	return st.annotateEach(len(groups), func(i int) []*Fragment { return groups[i] }, at, keep)
}

// GetFillersList is the paper's get_fillers_list: GetFillers over a set
// of hole ids, concatenated in input order. Unlike looping GetFillers, it
// resolves the whole id set in ONE pass over the log in scan mode — the
// unnested/join formulation of get_fillers that §8 proposes and that the
// QaC+ plan uses; the QaC plan deliberately loops GetFillers instead,
// matching the paper's translation and its measured cost.
func (st *Store) GetFillersList(fillerIDs []int, at time.Time) []*xmldom.Node {
	out, _ := st.annotateGroups(st.versionGroups(fillerIDs), at, nil)
	return out
}

// versionGroups returns, aligned with fillerIDs, each id's stored
// versions in validTime order. A duplicate id contributes its group only
// at its first position (later positions stay nil), mirroring
// GetFillersList's concatenation semantics. In scan mode the whole id
// set is resolved in ONE pass over the wire log — the single lookup pass
// whose cost GetFillersList is charged for; in indexed mode each group
// is an index copy. The cache layer shares this helper so batched miss
// fills keep the one-pass cost shape.
func (st *Store) versionGroups(fillerIDs []int) [][]*Fragment {
	groups := make([][]*Fragment, len(fillerIDs))
	if !st.scan {
		seen := make(map[int]bool, len(fillerIDs))
		for i, id := range fillerIDs {
			if seen[id] {
				continue
			}
			seen[id] = true
			groups[i] = st.Versions(id)
		}
		return groups
	}
	want := make(map[int]int, len(fillerIDs)) // id -> first position
	for i, id := range fillerIDs {
		if _, ok := want[id]; !ok {
			want[id] = i
		}
	}
	st.mu.RLock()
	for i, el := range st.wire {
		v, ok := el.Attr(AttrID)
		if !ok {
			continue
		}
		id, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		if pos, ok := want[id]; ok {
			groups[pos] = append(groups[pos], st.log[i])
		}
	}
	st.mu.RUnlock()
	for _, group := range groups {
		sort.SliceStable(group, func(i, j int) bool { return group[i].ValidTime.Before(group[j].ValidTime) })
	}
	return groups
}

// GetFillersByTSID returns the annotated versions of every filler whose
// tsid matches, grouped by filler id in ascending id order — the QaC+
// access path (the paper's filler[@tsid=…] predicate scan). One pass over
// the log in scan mode; index lookup otherwise.
func (st *Store) GetFillersByTSID(tsid int, at time.Time) []*xmldom.Node {
	out, _ := st.annotateGroups(st.tsidGroups(tsid), at, nil)
	return out
}

// tsidGroups returns the stored fragments carrying tsid as per-filler
// version groups: filler ids ascending, each group in validTime order —
// GetFillersByTSID's grouping, shared with the cache layer. One lookup
// pass over the log in scan mode.
func (st *Store) tsidGroups(tsid int) [][]*Fragment {
	frags := st.ByTSID(tsid)
	byID := make(map[int][]*Fragment)
	var order []int
	for _, f := range frags {
		if _, ok := byID[f.FillerID]; !ok {
			order = append(order, f.FillerID)
		}
		byID[f.FillerID] = append(byID[f.FillerID], f)
	}
	sort.Ints(order)
	groups := make([][]*Fragment, 0, len(order))
	for _, id := range order {
		group := byID[id]
		sort.SliceStable(group, func(i, j int) bool { return group[i].ValidTime.Before(group[j].ValidTime) })
		groups = append(groups, group)
	}
	return groups
}

// LatestVersion returns the version of fillerID current at the evaluation
// instant, or nil when none has arrived yet.
func (st *Store) LatestVersion(fillerID int, at time.Time) *Fragment {
	versions := st.Versions(fillerID)
	var cur *Fragment
	for _, f := range versions {
		if f.ValidTime.After(at) {
			break
		}
		cur = f
	}
	return cur
}

// Lifespan computes the [vtFrom, vtTo] interval of version index (0-based)
// of fillerID at the evaluation instant, mirroring GetFillers' annotation.
func (st *Store) Lifespan(fillerID, index int, at time.Time) (xtime.Interval, bool) {
	versions := st.Versions(fillerID)
	if index < 0 || index >= len(versions) || versions[index].ValidTime.After(at) {
		return xtime.Interval{}, false
	}
	f := versions[index]
	from := xtime.At(f.ValidTime)
	tag := st.structure.ByID(f.TSID)
	if tag != nil && tag.Type == tagstruct.Event {
		return xtime.PointInterval(from), true
	}
	if index+1 < len(versions) && !versions[index+1].ValidTime.After(at) {
		return xtime.NewInterval(from, xtime.At(versions[index+1].ValidTime)), true
	}
	return xtime.NewInterval(from, xtime.Now()), true
}

// FillerIDs returns all known filler ids in ascending order; mainly for
// diagnostics and tests.
func (st *Store) FillerIDs() []int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	seen := make(map[int]bool)
	var out []int
	for _, f := range st.log {
		if !seen[f.FillerID] {
			seen[f.FillerID] = true
			out = append(out, f.FillerID)
		}
	}
	sort.Ints(out)
	return out
}
