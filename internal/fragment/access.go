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
	// incremental unit's own filler are reached without one.
	Filler(st *Store, id int, hole bool, keep Filter) []*xmldom.Node
	// Fillers returns the versions of a hole-id set — a child step —
	// concatenated in input order, a repeated id contributing only at its
	// first position.
	Fillers(st *Store, ids []int, keep Filter) []*xmldom.Node
	// ByTSID returns every version stored under a tsid, grouped by filler
	// id ascending — a descendant step over the whole stream.
	ByTSID(st *Store, tsid int, keep Filter) []*xmldom.Node
	// Arm makes ev the evaluation the reads are for from here on: an owner
	// that runs one evaluation after another keeps one Access for them all.
	Arm(ev Eval)
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
	// LabelIndexAccess reads the store's index and pays for no lookup: no pass
	// over the log even on a scan store, no hole counted as resolved (QaC++).
	// It is named for the counters it moves, obs.EvalStats' LabelRange*; no
	// read consults a label (see LabelIndex).
	LabelIndexAccess
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
	// Cache memoizes the log passes; nil disables it. A label-index read
	// runs no pass and never consults it.
	Cache *Cache
	// Parallelism > 1 fans a log-scanned hole-id set out over that many
	// workers; Wait, when non-nil, receives their queue waits.
	Parallelism int
	Wait        *obs.Histogram
}

// NewAccess returns the access implementation of the given kind, reading
// and charging under ev.
func NewAccess(kind AccessKind, ev Eval) Access {
	switch kind {
	case TSIDIndexAccess:
		return &tsidIndex{logScan{ev}}
	case LabelIndexAccess:
		return &labelIndex{ev}
	default:
		return &logScan{ev}
	}
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
		els, n := st.lookup([]int{id}, a.At, keep)
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
// cannot return errors — and is contained at the engine boundary.
func (a *logScan) Fillers(st *Store, ids []int, keep Filter) []*xmldom.Node {
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

// ByTSID is the paper's filler[@tsid=…] predicate: one pass, answered
// by the tsid index on an indexed store. Only the index plans'
// translations ask for it.
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

// Fillers resolves the whole id set in one pass; with a cache, resident
// ids are served from memory and only the misses share that pass.
func (a *tsidIndex) Fillers(st *Store, ids []int, keep Filter) []*xmldom.Node {
	if len(ids) == 0 {
		return nil
	}
	a.Stats.AddHoles(len(ids))
	if a.Cache == nil {
		els, n := st.lookup(distinctIDs(ids), a.At, keep)
		a.chargePass(st, n, len(els))
		return els
	}
	all, hits, misses, built := a.Cache.GetFillersList(st, ids, a.At)
	if misses > 0 {
		a.chargePass(st, built, built)
	}
	a.Stats.AddCacheHits(hits)
	a.Stats.AddCacheMisses(misses)
	return keep.Sift(all)
}

type labelIndex struct{ Eval }

func (a *labelIndex) Arm(ev Eval) { a.Eval = ev }

// charge counts one index fetch that examined n versions and passes its
// elements through.
func (a *labelIndex) charge(els []*xmldom.Node, n int) []*xmldom.Node {
	a.Stats.AddLabelRangeLookup(n)
	a.Stats.AddNodes(len(els))
	return els
}

func (a *labelIndex) Filler(st *Store, id int, _ bool, keep Filter) []*xmldom.Node {
	return a.charge(st.read([]int{id}, 0, a.At, keep))
}

func (a *labelIndex) Fillers(st *Store, ids []int, keep Filter) []*xmldom.Node {
	return a.charge(st.read(distinctIDs(ids), 0, a.At, keep))
}

func (a *labelIndex) ByTSID(st *Store, tsid int, keep Filter) []*xmldom.Node {
	return a.charge(st.readTSID(tsid, a.At, keep))
}
