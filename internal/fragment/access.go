package fragment

import (
	"time"

	"xcql/internal/budget"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
)

// HoleResolver maps a hole id to the annotated versions of its fillers.
type HoleResolver func(holeID int) []*xmldom.Node

// Access is the one seam between a translated plan and the stores it
// reads. Every plan performs the same three reads and gets the same
// elements from them, out of the store's one index; the implementations
// differ only in the lookup pass a read pays for and what the evaluation's
// counters are charged for it —
// the paper's claim that the plans "differ only in access cost, never
// in results", as a type.
//
// Every read takes an optional Filter and returns only the versions it
// keeps. The access cost is that of the unfiltered read — fillers scanned,
// holes resolved, index hits all count every version examined — and only
// the nodes constructed follow what was returned: a filter saves building
// a version's view, not finding the version.
type Access interface {
	// Filler returns one filler's versions visible at the evaluation
	// instant. hole says the read crosses a hole; a stream's root and an
	// incremental unit's own filler are reached without one. keep is asked
	// exactly once per visible version, in validTime order, whatever it
	// answers — an incremental unit selects the versions it re-runs by
	// their position — and the read is charged what the unfiltered read is.
	Filler(st *Store, id int, hole bool, keep Filter) []*xmldom.Node
	// Fillers returns the versions of a hole-id set — a child step —
	// concatenated in input order, a repeated id contributing only at its
	// first position. A child step that counts positions per parent passes
	// a Window; the zero Window reads the set whole.
	Fillers(st *Store, ids []int, keep Filter, win Window) []*xmldom.Node
	// ChargeFillers charges what Fillers(st, ids, nil, Window{}) charges,
	// uncached and sequential, for distinct ids, and reads nothing: for a
	// caller that holds what the read returns already (an incremental
	// engine's memoized child terms). A budget trip panics, as in Fillers.
	ChargeFillers(st *Store, ids []int)
	// FillersEach reads, in one pass, what several Fillers calls without a
	// filter would read one after another — a for clause's body crossing
	// each binding's holes. win.Ends closes the calls' id sets as it closes
	// a window's groups: ids within a set are distinct, and an id may recur
	// in other sets, each set getting its versions. win's positions count
	// within each set, Ends and Examined receive each set's end in what the
	// read returns and the versions it examined, and nothing is charged:
	// ChargeEach charges one set what its own call charges. It reports
	// false and reads nothing where a call's charge depends on the calls
	// before it — a cache, which they warm, or a pass per hole; given no
	// ids, it reads nothing and only reports which.
	FillersEach(st *Store, ids []int, win Window) ([]*xmldom.Node, bool)
	// ChargeEach charges what a Fillers call of holes distinct ids charges
	// when it examines examined versions and builds built.
	ChargeEach(st *Store, holes, examined, built int)
	// ByTSID returns every version stored under a tsid, grouped by filler
	// id ascending — a descendant step over the whole stream.
	ByTSID(st *Store, tsid int, keep Filter) []*xmldom.Node
	// Arm makes ev the evaluation the reads are for from here on: an owner
	// that runs one evaluation after another keeps one Access for them all.
	Arm(ev Eval)
}

// Window is what a child step whose predicates count positions asks of its
// read: the hole-id set falls into its parents' groups, and of each group's
// versions — those the read's filter keeps, numbered from 1 in read order —
// only the positions inside the window are built. Past the window's end the
// read builds nothing more for the group, and it is charged what the
// unwindowed read is: every visible version counts as examined. Only a
// child step has a window; a descendant step's chain of reads would number
// its versions across parents.
type Window struct {
	// Ends closes each parent's group: group g is ids[Ends[g-1]:Ends[g]],
	// the first from 0, and the ids are distinct; nil reads the set whole,
	// unwindowed. The read overwrites each entry — in the caller's array —
	// with where its group ends in what the read returns.
	Ends []int
	// From and To are the first and last positions kept; To < From keeps
	// none.
	From, To int
	// Last keeps each group's last version instead.
	Last bool
	// Examined, when non-nil, receives each group's count of versions
	// examined, entry for entry with Ends.
	Examined []int
}

// windowKeep narrows a read's filter to one group's window at a time: it
// numbers the versions keep lets through and lets those numbered from..to
// through. Past to it asks keep nothing more.
type windowKeep struct {
	keep     Filter
	from, to int
	n        int
}

func (w *windowKeep) admit(v Version) bool {
	if w.n >= w.to || w.keep != nil && !w.keep(v) {
		return false
	}
	w.n++
	return w.n >= w.from
}

// open readies w for gids, one group of win: for Last, what keep lets
// through of the group is counted off the store's index first.
func (w *windowKeep) open(win Window, st *Store, gids []int, at time.Time) {
	w.from, w.to, w.n = win.From, win.To, 0
	if win.Last {
		w.from = st.kept(gids, at, w.keep)
		w.to = w.from
	}
}

// groups runs a windowed read group by group: visit reads ids[lo:hi], one
// parent's group, under keep narrowed to the window, and returns the
// length of the read's output after it, which becomes the group's entry in
// Ends.
func (win Window) groups(st *Store, ids []int, at time.Time, keep Filter, visit func(lo, hi int, keep Filter) int) {
	w := windowKeep{keep: keep}
	narrowed := Filter(w.admit)
	lo := 0
	for g, hi := range win.Ends {
		w.open(win, st, ids[lo:hi], at)
		win.Ends[g] = visit(lo, hi, narrowed)
		lo = hi
	}
}

// siftSlots applies a read's filter, and its window when it has one, to
// versions built already: slots[i] holds the versions of ids[i].
func siftSlots(st *Store, ids []int, at time.Time, slots [][]*xmldom.Node, keep Filter, win Window) []*xmldom.Node {
	var out []*xmldom.Node
	appendKept := func(slots [][]*xmldom.Node, keep Filter) {
		for _, els := range slots {
			if keep == nil {
				out = append(out, els...)
				continue
			}
			for _, el := range els {
				if keep(Version{top: el}) {
					out = append(out, el)
				}
			}
		}
	}
	if win.Ends == nil {
		appendKept(slots, keep)
		return out
	}
	win.groups(st, ids, at, keep, func(lo, hi int, keep Filter) int {
		appendKept(slots[lo:hi], keep)
		return len(out)
	})
	return out
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
// instant, uncounted, unmetered, uncached and sequentially.
type Eval struct {
	At time.Time
	// Stats receives the access cost; nil collects nothing.
	Stats *obs.EvalStats
	// Budget is charged one step — a cancellation poll — per pass of a
	// log-scanned hole-id set; nil is unlimited.
	Budget *budget.Budget
	// Cache memoizes the log passes; nil disables it.
	Cache *Cache
	// Parallelism > 1 fans a log-scanned hole-id set out over that many
	// workers; Wait, when non-nil, receives their queue waits.
	Parallelism int
	Wait        *obs.Histogram
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

// chargePass charges one lookup pass that examined n versions and built a
// top element for each of built.
func (a *logScan) chargePass(st *Store, n, built int) {
	a.Stats.AddFillers(st.LookupCost(n))
	a.Stats.AddNodes(built)
}

// chargeCached charges one probe of the cache, whose entries hold every
// version's top: a hit replaces the pass, a miss pays for all of it. The
// filter then runs over the cached tops — the cache key has no filter
// dimension, so one entry serves every query that reads the filler.
func (a *logScan) chargeCached(st *Store, hit bool, all []*xmldom.Node) {
	if hit {
		a.Stats.AddCacheHits(1)
		return
	}
	a.Stats.AddCacheMisses(1)
	a.chargePass(st, len(all), len(all))
}

func (a *logScan) Filler(st *Store, id int, hole bool, keep Filter) []*xmldom.Node {
	if hole {
		a.Stats.AddHoles(1)
	}
	if a.Cache == nil || !hole {
		// what no hole leads to is read once per evaluation: not memoized
		els, n := st.lookup([]int{id}, a.At, keep, Window{})
		a.chargePass(st, n, len(els))
		return els
	}
	all, hit := a.Cache.GetFillers(st, id, a.At)
	a.chargeCached(st, hit, all)
	return keep.Sift(all)
}

// Fillers issues one pass per hole, on the worker pool when Parallelism
// allows: the per-hole cost the QaC plan pays and the batched read
// avoids. A budget trip panics with the *budget.ResourceError — workers
// cannot return errors — and is contained at the engine boundary. A
// window numbers versions across a group's holes, so a windowed read
// passes them in order, on the calling goroutine.
func (a *logScan) Fillers(st *Store, ids []int, keep Filter, win Window) []*xmldom.Node {
	if win.Ends != nil {
		var out []*xmldom.Node
		win.groups(st, ids, a.At, keep, func(lo, hi int, keep Filter) int {
			for _, id := range ids[lo:hi] {
				a.Budget.MustStep()
				out = append(out, a.Filler(st, id, true, keep)...)
			}
			return len(out)
		})
		return out
	}
	memo := ResolveIDs(ids, func(id int) []*xmldom.Node {
		a.Budget.MustStep()
		return a.Filler(st, id, true, keep)
	}, a.Parallelism, a.Wait, a.Stats)
	var out []*xmldom.Node
	for _, id := range ids {
		out = append(out, memo[id]...)
		delete(memo, id)
	}
	return out
}

func (a *logScan) ChargeFillers(st *Store, ids []int) {
	for _, id := range ids {
		a.Budget.MustStep()
		a.Stats.AddHoles(1)
		n := st.visible(id, a.At)
		a.chargePass(st, n, n)
	}
}

func (a *logScan) FillersEach(*Store, []int, Window) ([]*xmldom.Node, bool) { return nil, false }

// ChargeEach is never asked: a pass per hole reads each call itself.
func (a *logScan) ChargeEach(*Store, int, int, int) {}

// ByTSID is the paper's filler[@tsid=…] predicate: one pass, answered
// by the tsid index on an indexed store. Only QaC+'s translations ask
// for it.
func (a *logScan) ByTSID(st *Store, tsid int, keep Filter) []*xmldom.Node {
	if a.Cache == nil {
		els, n := st.lookupTSID(tsid, a.At, keep)
		a.Stats.AddTSIDLookup(n)
		a.chargePass(st, n, len(els))
		return els
	}
	all, hit := a.Cache.GetFillersByTSID(st, tsid, a.At)
	a.Stats.AddTSIDLookup(len(all))
	a.chargeCached(st, hit, all)
	return keep.Sift(all)
}

type tsidIndex struct{ logScan }

// Fillers resolves the whole id set in one pass, windowed or not; with a
// cache, resident ids are served from memory and only the misses share
// that pass.
func (a *tsidIndex) Fillers(st *Store, ids []int, keep Filter, win Window) []*xmldom.Node {
	if len(ids) == 0 {
		return nil
	}
	a.Stats.AddHoles(len(ids))
	ids = distinctIDs(ids)
	if a.Cache == nil {
		els, n := st.lookup(ids, a.At, keep, win)
		a.chargePass(st, n, len(els))
		return els
	}
	slots, hits, misses, built := a.Cache.GetFillersList(st, ids, a.At)
	if misses > 0 {
		a.chargePass(st, built, built)
	}
	a.Stats.AddCacheHits(hits)
	a.Stats.AddCacheMisses(misses)
	return siftSlots(st, ids, a.At, slots, keep, win)
}

// FillersEach makes the calls' one pass, unless a cache serves them.
func (a *tsidIndex) FillersEach(st *Store, ids []int, win Window) ([]*xmldom.Node, bool) {
	if a.Cache != nil || len(ids) == 0 {
		return nil, a.Cache == nil
	}
	els, _ := st.lookup(ids, a.At, nil, win)
	return els, true
}

func (a *tsidIndex) ChargeEach(st *Store, holes, examined, built int) {
	a.Stats.AddHoles(holes)
	a.chargePass(st, examined, built)
}

func (a *tsidIndex) ChargeFillers(st *Store, ids []int) {
	if len(ids) == 0 {
		return
	}
	n := 0
	for _, id := range ids {
		n += st.visible(id, a.At)
	}
	a.ChargeEach(st, len(ids), n, n)
}
