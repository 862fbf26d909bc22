package fragment

import (
	"fmt"
	"slices"
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
// arrived, and the one index every read goes through — each filler's
// versions in validTime order and, per tsid, the distinct filler ids
// ascending. It is safe for concurrent readers with one or more writers,
// so continuous queries can evaluate while fragments arrive.
type Store struct {
	structure *tagstruct.Structure
	// scan makes every log-scan and tsid-index lookup pass walk the stored
	// <filler> wire elements (scanPass), reproducing the cost model of the
	// paper's evaluation substrate, where get_fillers was a predicate scan
	// over a flat fragments.xml document. NewScanStore sets it.
	scan bool

	mu   sync.RWMutex
	log  []*Fragment    // arrival order
	wire []*xmldom.Node // scan mode: the <filler> wire elements, aligned with log

	// The filler index, written by index alone. A version group or an id
	// list grows at its end or is replaced by a new slice, never shifted in
	// place: a reader takes a slice header under mu and reads it — runs its
	// Filter, builds its nodes — after letting mu go.
	byID   map[int][]*Fragment // filler id -> versions by validTime, ties by arrival
	byTSID map[int]tsidFillers

	// gen counts successful Adds, and Coalesce passes that removed
	// something (Generation). Duplicate or reordered frames the stream
	// client drops never reach Add, so they advance nothing.
	gen atomic.Uint64

	// wal, when set, receives every fragment after validation and before
	// it becomes queryable — the write-ahead rule: an error keeps the
	// fragment out of memory entirely and fails the Add.
	wal func(*Fragment) error
}

// tsidFillers is what the index keeps per tsid: the distinct ids of the
// fillers with a version carrying it, ascending, and how many versions do;
// for an event tag, once a bounded read or EXPLAIN has asked for them
// (timed, events), its versions in validTime order too, which answer a
// window by binary search (pickWindow). Like a version group, byTime grows
// at its end or is replaced, never shifted. A stream no bounded read asks
// about pays nothing for it.
type tsidFillers struct {
	fids     []int
	versions int
	byTime   []*Fragment
	timed    bool
}

// NewStore returns an empty indexed store for the given tag structure.
func NewStore(s *tagstruct.Structure) *Store {
	return &Store{
		structure: s,
		byID:      make(map[int][]*Fragment),
		byTSID:    make(map[int]tsidFillers),
	}
}

// NewScanStore returns a store whose log-scan and tsid-index lookups pay
// for a walk of the whole fragment log as stored XML, evaluating the
// paper's doc("fragments.xml")/fragments/filler[@id=$fid] predicate
// against each <filler> element's attributes. The Figure-4 benchmarks use
// it to reproduce the published cost shape; production clients should use
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
// except for the root filler, must belong to a fragmented tag, and the
// payload must be the tag's element — read off a decoded fragment's frame,
// which Add does not build. A fragment decoded from a delta frame is linked
// to the stored version it extends — the one version of its filler dated
// the frame's base validTime — which the fragment records (Predecessor),
// and is a *MissingPredecessorError, and stored not at all, when the store
// does not hold that version.
func (st *Store) Add(f *Fragment) error {
	tag := st.structure.ByID(f.TSID)
	if tag == nil {
		return fmt.Errorf("fragment: unknown tsid %d on filler %d", f.TSID, f.FillerID)
	}
	if f.FillerID != RootFillerID && !tag.IsFragmented() {
		return fmt.Errorf("fragment: filler %d carries snapshot tag %q", f.FillerID, tag.Name)
	}
	name, ok := f.payloadTag()
	if !ok {
		return fmt.Errorf("fragment: filler %d has no payload", f.FillerID)
	}
	if name != tag.Name {
		return fmt.Errorf("fragment: filler %d payload <%s> does not match tag %q (tsid %d)",
			f.FillerID, name, tag.Name, f.TSID)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if f.IsDelta() {
		if err := f.linkTo(st.predecessor(f)); err != nil {
			return err
		}
	}
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
	}
	st.index(f)
	st.gen.Add(1)
	return nil
}

// predecessor returns the version a delta f extends: the one stored
// version of its filler dated the frame's base validTime, searched from the
// newest, where a re-announcement's predecessor is; nil when there is
// none, or more than one (a fragment stored twice is one). Callers hold the
// write lock.
func (st *Store) predecessor(f *Fragment) *Fragment {
	at := f.enc.lazy().base
	var prev *Fragment
	versions := st.byID[f.FillerID]
	for i := len(versions) - 1; i >= 0; i-- {
		switch vt := versions[i].ValidTime.Truncate(time.Second).UnixNano(); {
		case vt == at && prev != nil && versions[i] != prev:
			return nil // two versions: a delta names one by its validTime alone
		case vt == at:
			prev = versions[i]
		case vt < at:
			return prev
		}
	}
	return prev
}

// index files f under its filler id and its tsid. Callers hold the write
// lock.
func (st *Store) index(f *Fragment) {
	versions := st.byID[f.FillerID]
	// validTime order; ties keep arrival order
	i := sort.Search(len(versions), func(i int) bool {
		return versions[i].ValidTime.After(f.ValidTime)
	})
	st.byID[f.FillerID] = insertAt(versions, i, f)
	t := st.byTSID[f.TSID]
	if i, found := slices.BinarySearch(t.fids, f.FillerID); !found {
		t.fids = insertAt(t.fids, i, f.FillerID)
	}
	t.versions++
	if t.timed {
		t.byTime = insertAt(t.byTime, timeOrder(t.byTime, f), f)
	}
	st.byTSID[f.TSID] = t
}

// timeOrder is where f goes in versions, ordered by validTime: after every
// version dated no later, so ties keep the order they are filed in.
func timeOrder(versions []*Fragment, f *Fragment) int {
	return sort.Search(len(versions), func(i int) bool { return versions[i].ValidTime.After(f.ValidTime) })
}

// insertAt returns s with v at position i, keeping the index's rule for
// slices a reader may be holding: at the end it appends — a reader never
// looks past the length it took — and anywhere else it builds a new slice,
// so no element a reader can see moves. Fragmenters number fillers, and
// date versions, in the order they send them: the copy is the exception.
func insertAt[T any](s []T, i int, v T) []T {
	if i == len(s) {
		return append(s, v)
	}
	return slices.Concat(s[:i], []T{v}, s[i:])
}

// Generation returns the store's ingest generation: a counter that
// advances on every successful Add, and on every Coalesce that removes a
// version, and never regresses. Its one reader is an incremental engine's
// check for fragments stored behind its back: a fragment-less evaluation
// that finds the generation moved since the engine's last look re-reads
// the store from scratch (inc.Engine.Apply).
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
	return len(st.log)
}

// Versions returns the stored versions of a filler id in validTime order:
// the index's own group, not a copy. The slice and the fragments are
// shared and must not be modified.
func (st *Store) Versions(fillerID int) []*Fragment {
	st.mu.RLock()
	vs := st.byID[fillerID]
	st.mu.RUnlock()
	return vs[:len(vs):len(vs)]
}

// FillerIDs returns every stored filler id in ascending order, in a slice
// of the caller's own: the index's keys, sorted.
func (st *Store) FillerIDs() []int {
	st.mu.RLock()
	ids := make([]int, 0, len(st.byID))
	for id := range st.byID {
		ids = append(ids, id)
	}
	st.mu.RUnlock()
	sort.Ints(ids)
	return ids
}

// Fillers returns the number of distinct filler ids stored.
func (st *Store) Fillers() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return len(st.byID)
}

// TSIDFillers returns the distinct ids of the fillers with a version
// carrying tsid, ascending — the index's own list, which must not be
// modified — and the number of versions that carry it.
func (st *Store) TSIDFillers(tsid int) (fids []int, versions int) {
	st.mu.RLock()
	t := st.byTSID[tsid]
	st.mu.RUnlock()
	return t.fids[:len(t.fids):len(t.fids)], t.versions
}

// scanPass is one lookup pass under the scan cost model: the paper's
// filler[@attr=value] predicate evaluated against every stored <filler>
// wire element — for a set of values, the join of the log with the set
// (§8's unnested get_fillers) — and the number of elements that matched.
// A read does not collect them: the index already holds what the pass
// finds, grouped and ordered, since Add files every fragment in both. A
// scan store exists to reproduce what a lookup costs on the paper's
// substrate, and this walk is that cost; on an indexed store there is no
// pass.
func (st *Store) scanPass(attr string, values []int) (matched int) {
	if !st.scan || len(values) == 0 {
		return 0
	}
	st.mu.RLock()
	wire := st.wire // grows at its end or is replaced, like the index's slices
	st.mu.RUnlock()
	// the join's build side: a bitmap over the values' range when it takes
	// no more words than there are values — a batch of hole ids, which a
	// fragmenter numbers closely, repeats included — and a set otherwise
	lo, hi := slices.Min(values), slices.Max(values)
	var few [4]uint64
	var bits []uint64
	var set map[int]struct{}
	switch words := (hi-lo)/64 + 1; {
	case len(values) == 1:
	case words <= len(values):
		bits = few[:0]
		if words > len(few) {
			bits = make([]uint64, 0, words)
		}
		bits = bits[:words]
		for _, v := range values {
			bits[(v-lo)/64] |= 1 << ((v - lo) % 64)
		}
	default:
		set = make(map[int]struct{}, len(values))
		for _, v := range values {
			set[v] = struct{}{}
		}
	}
	for _, el := range wire {
		v, ok := el.Attr(attr)
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			continue
		}
		match := n == values[0]
		switch {
		case bits != nil:
			match = n >= lo && n <= hi && bits[(n-lo)/64]&(1<<((n-lo)%64)) != 0
		case set != nil:
			_, match = set[n]
		}
		if match {
			matched++
		}
	}
	return matched
}

// PassCost reports how many stored filler versions passes lookup passes
// that returned n versions between them examined: the whole fragment log
// per pass under the scan cost model (the paper's predicate scan
// evaluates its filter against every <filler> element), or just the
// returned versions on the indexed store. The access paths charge it to
// EvalStats' FillersScanned, so that it reproduces the access cost
// Figure 4 measures, and EXPLAIN predicts with it.
func (st *Store) PassCost(passes, n int) int {
	if st.scan {
		return passes * st.Len()
	}
	return n
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

// Filter decides, from a version's stored payload, whether a read returns
// the version. A read evaluates it before the version's top element
// exists, so a version it turns away costs the read no allocation; it is
// still a version the read examined, and is charged as one. nil keeps
// every version.
type Filter func(v Version) bool

// Version is a version as a Filter is asked about it: its payload is built
// only if the filter reads it, so a filter that decides by position alone
// (an incremental unit picking the versions it re-runs) builds nothing.
type Version struct {
	f   *Fragment
	top *xmldom.Node // a read's built top, when the filter sifts those
}

// Payload returns the version's payload element — the built top, when the
// filter sifts what a read built already.
func (v Version) Payload() *xmldom.Node {
	if v.top != nil {
		return v.top
	}
	return v.f.Tree()
}

// Sift appends to out the elements of els the filter keeps — versions
// built already —, taking els itself while out is empty and there is no
// filter.
func (keep Filter) Sift(out, els []*xmldom.Node) []*xmldom.Node {
	if keep == nil {
		if len(out) == 0 {
			return els
		}
		return append(out, els...)
	}
	for _, el := range els {
		if keep(Version{top: el}) {
			out = append(out, el)
		}
	}
	return out
}

// keptVersion is a version a read returns, as its first pass finds it: the
// version, and the one whose validTime closes its lifespan — f itself for
// an event's point, nil while the lifespan is open ("now").
type keptVersion struct{ f, to *Fragment }

// pickVersions appends to kept each version of one filler id visible at
// the evaluation instant that keep lets through, and an interval bound sp
// (nil for none) after it, with what closes its lifespan, and reports how
// many visible versions it examined. versions must be the filler's
// versions in validTime order. A version's lifespan is a fact about its
// filler, not about the read that reached it: it runs to the validTime of
// the filler's next visible version, whatever that one's tsid. A read by
// tsid (tsid > 0) returns — examines, asks keep about — only the versions
// carrying the tsid; for a filler id that arrived under a second tsid, the
// other tsid's versions still close the lifespans of the ones returned.
func (st *Store) pickVersions(kept []keptVersion, versions []*Fragment, tsid int, at time.Time, keep Filter, sp *Span) ([]keptVersion, int) {
	examined := 0
	for i, f := range versions {
		if f.ValidTime.After(at) {
			break
		}
		if tsid > 0 && f.TSID != tsid {
			continue
		}
		examined++
		if keep != nil && !keep(Version{f: f}) {
			continue
		}
		k := keptVersion{f: f}
		if tag := st.structure.ByID(f.TSID); tag != nil && tag.Type == tagstruct.Event {
			k.to = f
		} else if i+1 < len(versions) && !versions[i+1].ValidTime.After(at) {
			k.to = versions[i+1]
		}
		if sp != nil && !sp.within(k, at) {
			continue
		}
		kept = append(kept, k)
	}
	return kept, examined
}

// pickWindow is pickVersions for a read of an event tag's versions under
// an interval bound, events the tag's versions in validTime order
// (tsidFillers.byTime): it examines the versions whose point lifespans lie
// between the window's ends, found by binary search, and past them only
// what the bound's report to its horizon needs — a version beyond the
// window's later end enters it the sooner the earlier it is, so the first
// one keep lets through stands for them all, and one before the earlier end
// never enters it. When nothing else was asked about, the last such
// version keep lets through is, so that a window that cannot be scheduled
// by (xtime.Horizon.Collapse) is reported as the projection would report
// it. The kept versions are appended grouped by filler id ascending, as a
// tsid's read returns them.
func (st *Store) pickWindow(kept []keptVersion, events []*Fragment, at time.Time, keep Filter, sp *Span) ([]keptVersion, int) {
	visible, lo, hi := windowOf(events, sp.Window, at)
	n, examined, asked := len(kept), 0, false
	// ask asks keep and then the bound about f, reporting whether keep let
	// it through
	ask := func(f *Fragment) bool {
		examined++
		if keep != nil && !keep(Version{f: f}) {
			return false
		}
		asked = true
		if k := (keptVersion{f: f, to: f}); sp.within(k, at) {
			kept = append(kept, k)
		}
		return true
	}
	for _, f := range events[lo:hi] {
		ask(f)
	}
	for _, f := range events[hi:visible] {
		if ask(f) {
			break
		}
	}
	for i := lo - 1; i >= 0 && !asked; i-- {
		ask(events[i])
	}
	if byFiller := func(x, y keptVersion) int { return x.f.FillerID - y.f.FillerID }; !slices.IsSortedFunc(kept[n:], byFiller) {
		slices.SortStableFunc(kept[n:], byFiller)
	}
	return kept, examined
}

// windowOf finds window in events, an event tag's versions in validTime
// order: the first `visible` are visible at the instant at, and
// events[lo:hi] lie between the window's ends.
func windowOf(events []*Fragment, window xtime.Interval, at time.Time) (visible, lo, hi int) {
	visible = sort.Search(len(events), func(i int) bool { return events[i].ValidTime.After(at) })
	a, b := window.From.Resolve(at), window.To.Resolve(at)
	if b.Before(a) {
		a, b = b, a
	}
	lo = sort.Search(visible, func(i int) bool { return !stamped(events[i].ValidTime).Time().Before(a) })
	hi = lo + sort.Search(visible-lo, func(i int) bool { return stamped(events[lo+i].ValidTime).Time().After(b) })
	return visible, lo, hi
}

// WindowExamined is how many versions a FromTSID read of tsid without a
// filter examines under the interval bound window at the validTime of the
// tag's newest version, and true, when tsid is an event tag's; false, when
// the read examines every visible version, as a read without a bound
// does. EXPLAIN predicts with it: a standing query over an event tag is
// evaluated as each of its versions arrives.
func (st *Store) WindowExamined(tsid int, window xtime.Interval) (int, bool) {
	events := st.events(tsid)
	if events == nil {
		return 0, false
	}
	var at time.Time
	if len(events) > 0 {
		at = events[len(events)-1].ValidTime
	}
	_, n := st.pickWindow(nil, events, at, nil, &Span{Kind: IntervalSpan, Window: window})
	return n, true
}

// events returns the versions of tsid in validTime order when tsid is an
// event tag's, nil otherwise. The first ask files them, ties by filler id
// and then in their version group's order; from then on Add files each
// after every version dated no later.
func (st *Store) events(tsid int) []*Fragment {
	if tag := st.structure.ByID(tsid); tag == nil || tag.Type != tagstruct.Event {
		return nil
	}
	st.mu.RLock()
	t := st.byTSID[tsid]
	st.mu.RUnlock()
	if !t.timed {
		st.mu.Lock()
		if t = st.byTSID[tsid]; !t.timed {
			t.byTime = make([]*Fragment, 0, t.versions)
			for _, fid := range t.fids {
				for _, f := range st.byID[fid] {
					if f.TSID == tsid {
						t.byTime = append(t.byTime, f)
					}
				}
			}
			slices.SortStableFunc(t.byTime, func(a, b *Fragment) int { return a.ValidTime.Compare(b.ValidTime) })
			t.timed = true
			st.byTSID[tsid] = t
		}
		st.mu.Unlock()
	}
	return t.byTime[:len(t.byTime):len(t.byTime)]
}

// buildTops builds the top elements of the kept versions, each stamped with
// its deduced [vtFrom, vtTo]: the payload's name, its attributes with the
// lifespan on them, and its children, shared. The read knows every top it
// builds before it builds one, so the tops are one array of nodes, their
// attributes one array of attributes and their instants one buffer: a read
// costs a few allocations, not two per version. Each top's Attrs is a
// window of that array with room for the payload's attributes and the
// lifespan's two, and its Children the stored payload's list, both
// capacity-clipped: an append to one top reallocates, never writing into
// another top's attributes or a stored payload's children.
// Under an interval bound a kept version's stamps are its lifespan
// clipped to the window, spelled as the projection spells it — a window
// endpoint that replaces a stamp as the window's bound is written
// ("now-PT1H"), spelled once for the read.
func (st *Store) buildTops(kept []keptVersion, sp *Span, at time.Time) []*xmldom.Node {
	if len(kept) == 0 {
		return nil
	}
	nattrs, ninstants := 0, 0
	for i, k := range kept {
		nattrs += len(k.f.Tree().Attrs) + 2
		if i == 0 || kept[i-1].to != k.f {
			ninstants++ // its vtFrom; otherwise the version before's vtTo
		}
		if k.to != nil && k.to != k.f {
			ninstants++
		}
	}
	out := make([]*xmldom.Node, len(kept))
	nodes := make([]xmldom.Node, len(kept))
	attrs := make([]xmldom.Attr, nattrs)
	var instants strings.Builder
	var window [2]string // the window's ends as stamps, spelled when first needed
	if sp != nil {
		ninstants += 2
	}
	instants.Grow(ninstants * len(xtime.Layout))
	to := ""
	for i, k := range kept {
		from := to
		if i == 0 || kept[i-1].to != k.f {
			from = renderInstant(&instants, k.f.ValidTime)
		}
		switch k.to {
		case nil:
			to = "now"
		case k.f:
			to = from
		default:
			to = renderInstant(&instants, k.to.ValidTime)
		}
		stampFrom, stampTo := from, to
		if sp != nil {
			clipFrom, clipTo := sp.clips(k, at)
			if clipFrom {
				stampFrom = sp.spell(&instants, &window, 0)
			}
			if clipTo {
				stampTo = sp.spell(&instants, &window, 1)
			}
		}
		p, el := k.f.Tree(), &nodes[i]
		n := len(p.Attrs) + 2
		el.Type, el.Name = p.Type, p.Name
		el.Attrs = attrs[:copy(attrs, p.Attrs):n]
		el.Children = p.Children[:len(p.Children):len(p.Children)]
		el.SetAttr("vtFrom", stampFrom)
		el.SetAttr("vtTo", stampTo)
		attrs = attrs[n:]
		out[i] = el
	}
	return out
}

// spell returns the window's end `end` (0 its start, 1 its end) as a
// stamp spells it, written at the end of b the first time — into spelled,
// which keeps it for the read's other versions.
func (sp *Span) spell(b *strings.Builder, spelled *[2]string, end int) string {
	if spelled[end] == "" {
		var buf [len(xtime.Layout)]byte
		start := b.Len()
		b.Write(sp.appendEnd(buf[:0], end))
		spelled[end] = b.String()[start:]
	}
	return spelled[end]
}

// appendEnd appends the window's end `end` (0 its start, 1 its end) to b,
// spelled as the projection spells it (xtime.DateTime.String).
func (sp *Span) appendEnd(b []byte, end int) []byte {
	if end == 1 {
		return sp.Window.To.AppendTo(b)
	}
	return sp.Window.From.AppendTo(b)
}

// renderInstant spells t the way the wire does, at the end of b, and
// returns the spelling as a substring of what b holds: b never rewrites
// what it has handed out, so one buffer serves every version of a read
// where time.Format would allocate once per call.
func renderInstant(b *strings.Builder, t time.Time) string {
	var spelled [len(xtime.Layout)]byte
	start := b.Len()
	b.Write(t.UTC().AppendFormat(spelled[:0], xtime.Layout))
	return b.String()[start:]
}

// read is one lookup pass, then one read of the index: the paper's
// get_fillers over a set of distinct hole ids, their version groups
// concatenated in input order — §8's unnested formulation when there are
// several ids —, or, when tsid > 0, its filler[@tsid=…] lookup, the
// versions carrying tsid, filler ids ascending; annotated under r's
// filter, groups (which close the ids), window and bare tops, and the
// read as one group. It takes each group's slice header under the lock
// and works outside it, so no Filter runs and no node is built while a
// writer waits, and no group is copied. Past the lookup pass, a read is two
// passes over the versions: the first asks the filter about each version and notes the ones kept, the
// second builds exactly those (buildTops) — or, for a read of bare tops,
// hands out their stored payloads (tops). Without a filter every visible
// version is kept, and with a window no more than its width per group, so
// the read sizes its notes once; with a filter they start on the stack and
// grow as versions are kept.
func (st *Store) read(fids []int, tsid int, at time.Time, r Read) ([]*xmldom.Node, Group) {
	var sp *Span
	if r.Span.Kind == IntervalSpan {
		sp = &r.Span
	}
	var events []*Fragment
	if tsid > 0 {
		tsids := [1]int{tsid}
		st.scanPass(AttrTSID, tsids[:])
		fids, _ = st.TSIDFillers(tsid)
		if sp != nil {
			events = st.events(tsid)
		}
	} else {
		st.scanPass(AttrID, fids)
	}
	var few [32]keptVersion
	kept := few[:0]
	// a bound keeps what it keeps: the notes grow as versions are kept
	if r.Keep == nil && r.Span.Kind == NoSpan {
		total := 0
		st.mu.RLock()
		if tsid > 0 {
			total = st.byTSID[tsid].versions
		} else {
			for _, fid := range fids {
				total += len(st.byID[fid])
			}
		}
		st.mu.RUnlock()
		if r.Groups != nil && (r.Last || r.From > 0) {
			width := 1
			if !r.Last {
				width = max(r.To-r.From+1, 0)
			}
			if width < total/len(r.Groups)+1 {
				total = width * len(r.Groups)
			}
		}
		if total > len(few) {
			kept = make([]keptVersion, 0, total)
		}
	}
	examined := 0
	var w windowKeep
	keep := w.narrow(&r)
	r.each(st, at, fids, tsid, &w, func(lo, hi int) Group {
		var g Group
		n := len(kept)
		if events != nil {
			kept, g.Examined = st.pickWindow(kept, events, at, keep, sp)
		} else {
			for _, fid := range fids[lo:hi] {
				var seen int
				kept, seen = st.pickVersions(kept, st.Versions(fid), tsid, at, keep, sp)
				g.Examined += seen
			}
		}
		examined += g.Examined
		g.End, g.Built = len(kept), builtOf(len(kept)-n, r.Bare)
		return g
	})
	out, stamps := st.tops(kept, r, sp, at)
	return out, Group{End: len(out), Examined: examined, Built: builtOf(len(out), r.Bare), Stamps: stamps}
}

// tops is what a read returns for its kept versions: a lifespan-stamped
// top each (buildTops), or, when r asks for bare tops, each version's
// stored payload, and the bytes the stamps would have added to them, in
// all and group by group (r.Groups, already where each group ends in
// kept), under r's interval bound sp (nil for none).
func (st *Store) tops(kept []keptVersion, r Read, sp *Span, at time.Time) ([]*xmldom.Node, int) {
	if !r.Bare {
		return st.buildTops(kept, sp, at), 0
	}
	if len(kept) == 0 {
		return nil, 0
	}
	out := make([]*xmldom.Node, len(kept))
	stamps, g := 0, 0
	var window [2]int // the spellings' lengths of the window's ends, once needed
	for i, k := range kept {
		for g < len(r.Groups) && i >= r.Groups[g].End {
			g++
		}
		out[i] = k.f.Tree()
		n := stampBytes(k, sp, at, &window)
		stamps += n
		if g < len(r.Groups) {
			r.Groups[g].Stamps += n
		}
	}
	return out, stamps
}

// stampBytes is what buildTops' stamps add to k's top beyond its payload's
// xmldom.Node.ShallowSize: vtFrom, and vtTo — "now" while the lifespan is
// open —, under an interval bound sp (nil for none) the window's end where
// it clips the lifespan, whose lengths window keeps once spelled. A payload
// attribute of either name is overwritten, not added to.
func stampBytes(k keptVersion, sp *Span, at time.Time, window *[2]int) int {
	p := k.f.Tree()
	from, to := instantLen(k.f.ValidTime), len("now")
	if k.to != nil {
		to = instantLen(k.to.ValidTime)
	}
	if sp != nil {
		clipFrom, clipTo := sp.clips(k, at)
		if clipFrom {
			from = sp.spellLen(window, 0)
		}
		if clipTo {
			to = sp.spellLen(window, 1)
		}
	}
	return stampBytesOf(p, "vtFrom", from) + stampBytesOf(p, "vtTo", to)
}

// spellLen is the length of spell's spelling of the window's end `end`,
// kept in spelled once measured.
func (sp *Span) spellLen(spelled *[2]int, end int) int {
	if spelled[end] == 0 {
		var buf [len(xtime.Layout)]byte
		spelled[end] = len(sp.appendEnd(buf[:0], end))
	}
	return spelled[end]
}

func stampBytesOf(p *xmldom.Node, name string, n int) int {
	if old, ok := p.Attr(name); ok {
		return n - len(old)
	}
	return xmldom.AttrSize(name, n)
}

// instantLen is the length of t as renderInstant spells it: the layout's,
// unless the year takes other than four digits.
func instantLen(t time.Time) int {
	if y := t.UTC().Year(); y >= 0 && y <= 9999 {
		return len(xtime.Layout)
	}
	return len(t.UTC().Format(xtime.Layout))
}

// kept counts the versions of fids visible at the evaluation instant that
// keep lets through — of those, the ones carrying tsid, for tsid > 0 —,
// building nothing.
func (st *Store) kept(fids []int, tsid int, at time.Time, keep Filter) int {
	n := 0
	for _, fid := range fids {
		for _, f := range st.Versions(fid) {
			if f.ValidTime.After(at) {
				break
			}
			if tsid > 0 && f.TSID != tsid {
				continue
			}
			if keep == nil || keep(Version{f: f}) {
				n++
			}
		}
	}
	return n
}

// LatestVersion returns the version of fillerID current at the evaluation
// instant, or nil when none has arrived yet. It is a lookup by filler id,
// and costs a scan store one pass.
func (st *Store) LatestVersion(fillerID int, at time.Time) *Fragment {
	st.scanPass(AttrID, []int{fillerID})
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
