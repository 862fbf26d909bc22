package fragment

import (
	"math"
	"time"

	"xcql/internal/budget"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// Access is the one seam between a translated plan and the stores it
// reads: every read a plan makes is one Read, the paper's get_fillers (§5),
// and every plan gets the same elements from it, out of the store's one
// index — one per version visible at the evaluation instant, a new top
// stamped with its deduced lifespan over the stored payload's children
// (buildTops, pickVersions). The implementations
// differ only in the lookup passes a read pays for and what the
// evaluation's counters are charged for it — the paper's claim that the
// plans "differ only in access cost, never in results", as a type.
//
// Every read takes an optional Filter and returns only the versions it
// keeps. The access cost is that of the unfiltered read — fillers scanned,
// holes resolved, index hits all count every version examined — and only
// the nodes constructed follow what was returned: a filter saves building
// a version's view, not finding the version. A caller that reads nothing
// of a top but its name, children and payload attributes asks for bare
// tops (Read.Bare): the same versions, each its stored payload, no top
// built and no lifespan stamped — charged the same, save the nodes.
type Access interface {
	// Read makes the read r asks for and returns the versions it keeps,
	// and the read as one group (Group). A budget trip panics with the
	// *budget.ResourceError, which the engine boundary contains.
	Read(st *Store, r Read) ([]*xmldom.Node, Group)
	// Charge charges g, one group of a deferred read (Read.Defer), what
	// the group's own read charges: a read of g.Holes distinct holes that
	// examines g.Examined versions and builds g.Built tops. A group that
	// crossed no hole charges nothing.
	Charge(st *Store, g Group)
	// Arm makes ev the evaluation the reads are for from here on: an owner
	// that runs one evaluation after another keeps one Access for them all.
	Arm(ev Eval)
}

// Source is what a read reads.
type Source uint8

const (
	// FromHoles reads Read.IDs, the hole ids of a child step, in groups.
	FromHoles Source = iota
	// FromFiller reads filler Read.ID reached without a hole: a stream's
	// root, an incremental unit's own filler.
	FromFiller
	// FromHole reads filler Read.ID through the one hole that leads to it,
	// as a projection or a materialization crosses holes one at a time.
	FromHole
	// FromTSID reads every version stored under tsid Read.ID, grouped by
	// filler id ascending: a descendant step over the whole stream, the
	// paper's filler[@tsid=…] predicate.
	FromTSID
)

// Read is one read request: what it reads, which of the versions it
// keeps, how it hands them out, and who charges it. Only a FromHoles read
// has groups, a window, a dedupe scope or a deferred charge; the others
// read their versions whole, as one group.
type Read struct {
	Source Source
	// IDs are a FromHoles read's hole ids. They are the caller's scratch:
	// the read drops repeated ids in place, and reports how many it kept
	// as the returned Group's Holes.
	IDs []int
	// ID is the filler a FromFiller or FromHole read reads, the tsid a
	// FromTSID read reads.
	ID int
	// Keep is the read's filter; nil keeps every version. A FromFiller
	// read asks it exactly once per visible version, in validTime order,
	// whatever it answers: an incremental unit selects the versions it
	// re-runs by their position.
	Keep Filter
	// Groups closes IDs into groups — a child step's parents, a for
	// clause's bindings —: group g is IDs[Groups[g-1].End:Groups[g].End],
	// the first from 0. The read fills in each group's report, its End
	// rewritten to where the group ends in what the read returns. nil reads
	// IDs as one group, unwindowed, reported only as the whole.
	Groups []Group
	// From and To are the first and last positions each group keeps,
	// numbered from 1 among the versions Keep lets through, in read order;
	// To < From keeps none, and From 0 keeps every position. Past a group's
	// window the read builds nothing more for the group, and it is charged
	// what the unwindowed read is: every visible version counts as
	// examined. Only a child step has a window; a descendant step's chain
	// of reads would number its versions across parents.
	From, To int
	// Last keeps each group's last version instead.
	Last bool
	// Bare reads bare tops, for a caller that reads nothing of a top but
	// its name, children and payload attributes: the read hands out each
	// kept version's stored payload, never a new top stamped with its
	// lifespan, and reports what the stamps would have added to the
	// returned tops' logical size (Group.Stamps).
	Bare bool
	// EachGroup drops an id repeated within its group only, so that an id
	// may recur in other groups, each getting its versions — a for
	// clause's bindings, each read as its own call reads it. Otherwise an
	// id counts only at its first position in the read: a child step
	// crossing several parents' holes reads a shared child once.
	EachGroup bool
	// Defer reads without charging anything: the caller charges each group
	// when it takes it (Charge).
	Defer bool
	// Span is the read's lifespan bound: the temporal projection that
	// follows the step the read makes, made by the read. The zero Span
	// bounds nothing.
	Span Span
}

// SpanKind says what a lifespan bound bounds.
type SpanKind uint8

const (
	// NoSpan bounds nothing.
	NoSpan SpanKind = iota
	// IntervalSpan is e?[a,b] — and e?[t], the window [t,t] —: a version
	// whose lifespan misses the window is dropped before it is built, and a
	// kept one is stamped with its lifespan clipped to the window.
	IntervalSpan
	// VersionSpan is e#[i,j]: the read keeps the versions numbered i..j
	// among those Keep lets through, in read order — across the whole read,
	// or, for a read with Groups, within each group —, and stamps them as
	// it stamps every version.
	VersionSpan
)

// Span is a read's lifespan bound (§6's projections, made while the read
// crosses the holes instead of over what it built). A Span neither moves
// what a read examines nor what it charges for that, except on a FromTSID
// read of an event tag under an interval: the tag's versions are kept in
// validTime order, and the read examines only those its window can reach
// (Store.pickWindow). What lies below a kept version — holes, stamped
// elements — the caller projects (temporal.ProjectBelow).
type Span struct {
	Kind SpanKind
	// Window is an IntervalSpan's window.
	Window xtime.Interval
	// Versions is a VersionSpan's range.
	Versions xtime.VersionInterval
	// Horizon receives every comparison of a lifespan endpoint with the
	// window's that the read decides by (nil: none), as the projection
	// reports them (temporal.IntervalProjection): a standing query's result
	// expires when one of them changes.
	Horizon *xtime.Horizon
}

// within reports whether the projection e?[Window] keeps version k: whether
// k's lifespan meets the window. It reports the comparisons it decides by to
// sp.Horizon. This is the one test of a version against a lifespan bound.
func (sp *Span) within(k keptVersion, at time.Time) bool {
	_, ok := k.lifespan().Intersect(sp.Window, at, sp.Horizon)
	return ok
}

// clips reports which of kept version k's stamps the window replaces: the
// projection stamps k with its lifespan clipped to the window,
// [max(vtFrom, a), min(vtTo, b)], where a tie keeps k's own.
func (sp *Span) clips(k keptVersion, at time.Time) (from, to bool) {
	life := k.lifespan()
	return life.From.Compare(sp.Window.From, at) < 0, life.To.Compare(sp.Window.To, at) > 0
}

// lifespan is k's lifespan as its stamps spell it: validTimes to the
// second, "now" while it is open.
func (k keptVersion) lifespan() xtime.Interval {
	life := xtime.Interval{From: stamped(k.f.ValidTime), To: xtime.Now()}
	if k.to != nil {
		life.To = stamped(k.to.ValidTime)
	}
	return life
}

// stamped is t as a stamp spells it, and a projection reads it back: in
// UTC, to the second.
func stamped(t time.Time) xtime.DateTime { return xtime.At(t.UTC().Truncate(time.Second)) }

// Group is one group of a read as the read reports it, and, as Read
// returns it, the whole read as one group. Every kind of access fills it
// in.
type Group struct {
	// End is where the group ends: in Read.IDs as the caller closes it,
	// and, once read, in what the read returns.
	End int
	// Holes is the distinct hole ids the group crossed: none for a
	// FromFiller or FromTSID read.
	Holes int
	// Examined is the versions the read examined: every visible version of
	// the group's fillers, whatever Keep and the window turned away.
	Examined int
	// Built is the tops the read built: none for bare tops.
	Built int
	// Stamps is what the stamps of a bare read's tops would have added to
	// their logical size (xmldom.Node.TreeSize), so that a caller metering
	// bytes charges what the stamped read returns.
	Stamps int
}

// took adds to g what o read: its versions examined, its tops built and
// their stamps.
func (g *Group) took(o Group) {
	g.Examined += o.Examined
	g.Built += o.Built
	g.Stamps += o.Stamps
}

// distinct drops each repeated id from r.IDs in place, keeping it at its
// first position in the read — or, with EachGroup, in its group — and
// closes each group where its ids now end, reporting their count as the
// group's Holes. It builds a set only once the ids stop ascending: while
// they ascend, as a fragmenter numbers one parent's holes and the parents
// themselves, none can repeat, and it writes nothing to IDs. This is the
// one place a read's ids are deduped.
func (r *Read) distinct() {
	ids, groups := r.IDs, r.Groups
	var whole [1]Group
	if groups == nil {
		whole[0].End = len(ids)
		groups = whole[:]
	}
	var seen map[int]bool
	n, lo, scope := 0, 0, 0
	for i := range groups {
		hi, start := groups[i].End, n
		if r.EachGroup {
			seen, scope = nil, start
		}
		for j, id := range ids[lo:hi] {
			if seen == nil && n > scope && ids[n-1] >= id {
				seen = make(map[int]bool, len(ids))
				for _, kept := range ids[scope:n] {
					seen[kept] = true
				}
			}
			if seen != nil {
				if seen[id] {
					continue
				}
				seen[id] = true
			}
			if n != lo+j {
				ids[n] = id
			}
			n++
		}
		groups[i] = Group{End: n, Holes: n - start}
		lo = hi
	}
	r.IDs = ids[:n]
}

// each runs a read of ids — r's, or tsid's fillers — group by group:
// visit reads ids[lo:hi], one group, under the filter w narrowed
// (windowKeep.narrow), which each opens for the group, and returns what it
// read, End the length of the read's output after it, which becomes the
// group's End. A read without Groups is one group, unwindowed but for a
// version range. each returns the read as one group.
func (r *Read) each(st *Store, at time.Time, ids []int, tsid int, w *windowKeep, visit func(lo, hi int) Group) Group {
	if r.Groups == nil {
		if r.Span.Kind == VersionSpan {
			w.open(r, st, ids, tsid, at)
		}
		g := visit(0, len(ids))
		g.Holes = len(ids)
		return g
	}
	var total Group
	lo := 0
	for i := range r.Groups {
		g := &r.Groups[i]
		hi := g.End
		w.open(r, st, ids[lo:hi], tsid, at)
		took := visit(lo, hi)
		g.End = took.End
		g.took(took)
		total.took(took)
		total.Holes += g.Holes
		total.End = took.End
		lo = hi
	}
	return total
}

// windowKeep narrows a read's filter to one group's window at a time: it
// numbers the versions keep lets through and lets those numbered from..to
// through. Past to it asks keep nothing more.
type windowKeep struct {
	keep     Filter
	from, to int
	n        int
}

// narrow is the filter r reads its groups under: keep narrowed to the
// window through w, or keep itself for a read without groups or a version
// range.
func (w *windowKeep) narrow(r *Read) Filter {
	if w.keep = r.Keep; r.Groups == nil && r.Span.Kind != VersionSpan {
		return r.Keep
	}
	return w.admit
}

func (w *windowKeep) admit(v Version) bool {
	if w.n >= w.to || w.keep != nil && !w.keep(v) {
		return false
	}
	w.n++
	return w.n >= w.from
}

// open readies w for gids, one group of r — of tsid's versions, for
// tsid > 0: for Last and for a version range, what keep lets through of
// the group is counted off the store's index first.
func (w *windowKeep) open(r *Read, st *Store, gids []int, tsid int, at time.Time) {
	w.n = 0
	switch {
	case r.Last:
		w.from = st.kept(gids, tsid, at, w.keep)
		w.to = w.from
	case r.Span.Kind == VersionSpan:
		w.from, w.to = r.Span.Versions.Bounds(st.kept(gids, tsid, at, w.keep))
	case r.From == 0:
		w.from, w.to = 1, math.MaxInt
	default:
		w.from, w.to = r.From, r.To
	}
}

// AccessKind names an Access implementation.
type AccessKind uint8

const (
	// LogScanAccess pays one lookup pass over the fragment log per filler id
	// (CaQ and QaC): a hole-id set costs one pass per hole.
	LogScanAccess AccessKind = iota
	// TSIDIndexAccess is LogScanAccess with the unnested get_fillers of §8: a hole-id
	// set resolves in one batched pass (QaC+).
	TSIDIndexAccess
)

// Eval is the evaluation an Access reads for: the instant its reads are
// as of, and where it charges them. The zero value reads at the zero
// instant, uncounted and unmetered.
type Eval struct {
	At time.Time
	// Stats receives the access cost; nil collects nothing.
	Stats *obs.EvalStats
	// Budget is charged one step — a cancellation poll — per pass of a
	// log-scanned hole-id set; nil is unlimited.
	Budget *budget.Budget
}

// NewAccess returns the access implementation of the given kind, reading
// and charging under ev.
func NewAccess(kind AccessKind, ev Eval) Access {
	if kind == TSIDIndexAccess {
		return &tsidIndex{logScan{ev}}
	}
	return &logScan{ev}
}

type logScan struct{ Eval }

func (a *logScan) Arm(ev Eval) { a.Eval = ev }

// Read issues one pass per hole: the per-hole cost the QaC plan pays and
// the batched read avoids, each hole's pass a step of the budget. A window
// numbers versions across a group's holes, so a windowed read passes them
// group by group.
func (a *logScan) Read(st *Store, r Read) ([]*xmldom.Node, Group) {
	if r.Source != FromHoles {
		return a.one(st, r, true)
	}
	r.distinct()
	var out []*xmldom.Node
	var w windowKeep
	keep := w.narrow(&r)
	// a version range numbers versions across the holes, through keep
	var span Span
	if r.Span.Kind == IntervalSpan {
		span = r.Span
	}
	total := r.each(st, a.At, r.IDs, 0, &w, func(lo, hi int) Group {
		var g Group
		for _, id := range r.IDs[lo:hi] {
			if !r.Defer {
				a.Budget.MustStep()
			}
			els, took := a.one(st, Read{Source: FromHole, ID: id, Keep: keep, Bare: r.Bare, Span: span}, !r.Defer)
			out = append(out, els...)
			g.took(took)
		}
		g.End = len(out)
		return g
	})
	return out, total
}

// one is one pass, r's read of one filler or one tsid — the paper's
// filler[@tsid=…] predicate, answered by the tsid index on an indexed
// store —, charged when charge is set.
func (a *logScan) one(st *Store, r Read, charge bool) ([]*xmldom.Node, Group) {
	ids := [1]int{r.ID}
	tsid := 0
	if r.Source == FromTSID {
		tsid = r.ID
	}
	els, g := st.read(ids[:], tsid, a.At, Read{Keep: r.Keep, Bare: r.Bare, Span: r.Span})
	if r.Source == FromHole {
		g.Holes = 1
	}
	if charge {
		a.charge(st, g, 1)
	}
	if tsid > 0 {
		a.Stats.AddTSIDLookup(g.Examined)
	}
	return els, g
}

// Charge charges a deferred group a step and a pass per hole.
func (a *logScan) Charge(st *Store, g Group) {
	for range g.Holes {
		a.Budget.MustStep()
	}
	a.charge(st, g, g.Holes)
}

// charge charges a read of g's holes that made passes lookup passes
// between them, examining g's versions and building its tops.
func (a *logScan) charge(st *Store, g Group, passes int) {
	a.Stats.AddHoles(g.Holes)
	a.Stats.AddFillers(st.PassCost(passes, g.Examined))
	a.Stats.AddNodes(g.Built)
}

// builtOf is how many top elements a read returning n versions builds: none
// when it hands out bare tops.
func builtOf(n int, bare bool) int {
	if bare {
		return 0
	}
	return n
}

type tsidIndex struct{ logScan }

// Read resolves a hole-id set in one pass, windowed or not. Its other
// reads are the log scan's.
func (a *tsidIndex) Read(st *Store, r Read) ([]*xmldom.Node, Group) {
	if r.Source != FromHoles {
		return a.logScan.Read(st, r)
	}
	if r.distinct(); len(r.IDs) == 0 {
		return nil, Group{}
	}
	els, g := st.read(r.IDs, 0, a.At, r)
	g.Holes = len(r.IDs)
	if !r.Defer {
		a.charge(st, g, 1)
	}
	return els, g
}

// Charge charges a deferred group its share of the one pass.
func (a *tsidIndex) Charge(st *Store, g Group) {
	if g.Holes > 0 {
		a.charge(st, g, 1)
	}
}
