// Package inc evaluates a compiled XCQL query incrementally against a
// fragment stream: instead of re-running the whole plan on every arrival
// (O(store) per fragment), it decomposes the plan's access paths into
// pieces scheduled off the Tag Structure, keeps per-piece partial-match
// state keyed by filler id, and on each arrival recomputes only the
// units reachable from that fragment's tag — emitting the delta
// directly. This is the FluX-style schema-driven scheduling of the
// paper's continuous model: the Tag Structure tells the engine, per
// arriving tsid, exactly which standing sub-results the fragment can
// touch.
//
// The engine is pinned byte-identical to full re-evaluation (see
// TestDiffHarnessIncremental): every unit evaluates through the same
// engine code paths (Query.EvalSubPlan), unit outputs concatenate in the
// plan's own order, and deltas are the serials absent from the previous
// result, in first-occurrence order — exactly the full-mode diff.
//
// Decomposition is best-effort and always sound: a plan (or plan part)
// the decomposer does not understand becomes a single "broad" piece that
// recomputes on every arrival, which is full re-evaluation in disguise.
// The fast path is the QaC+ tsid-index access (fn:bytsid), whose units
// are individual fillers: one arrival then touches one unit per matching
// piece plus its containment ancestors, independent of store size.
//
// Limitations: the engine binds to the single stream the plan mentions;
// standing queries joining several streams fall back to broad pieces and
// should stay on full re-evaluation. Items handed out in deltas and
// snapshots are shared with the internal buffers — callers must not
// mutate them.
package inc

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// wrapper is one elementwise projection call stripped from around a
// piece during decomposition; it is re-applied per unit, with the unit's
// own sequence in the inner-expression slot.
type wrapper struct {
	name string
	args []xq.Expr // original call args; args[0] is the inner slot
}

// piece is one top-level strand of the decomposed plan. An indexed piece
// (tsids non-empty) is a fn:bytsid access whose units are individual
// fillers; a generic piece is an arbitrary sub-plan evaluated as one
// unit, dirtied by the tag-relevance set the Tag Structure gives it.
type piece struct {
	expr     xq.Expr   // generic: the full (re-wrapped) sub-plan
	wrappers []wrapper // indexed: projections re-applied per unit, outermost first
	tsids    []int     // indexed: one tsid per fn:bytsid argument
	// broad marks a piece whose data dependencies the decomposer cannot
	// bound: every arrival dirties it.
	broad bool
	// clock marks a piece whose output can change when the evaluation
	// instant moves (projection windows resolve against "now"): any
	// clock advance dirties all its units.
	clock bool
	// relevant is the set of tsids whose arrivals dirty a generic piece:
	// the tags its plan mentions plus every fragmented tag below them
	// (materialization recurses through holes, so descendant arrivals
	// change the piece's output).
	relevant map[int]bool
}

// sig is a structural signature of one unit slot — what the unit
// computes, independent of which query's engine computes it. Two engines
// whose units share a signature (same stream/store, same evaluation
// instant, same limits) produce identical outputs for the same filler,
// which is what lets a SharedPass evaluate the unit once and hand the
// result to every query in a shared group. Indexed signatures carry the
// tsid and a canonical rendering of the projection wrappers; generic
// signatures carry the sub-plan's canonical rendering. The materialize
// flag matters (count-mode queries skip materialization), so it is baked
// in too.
func (p *piece) sig(arg int, stream string, materialize bool) string {
	m := "m0|"
	if materialize {
		m = "m1|"
	}
	if p.indexed() {
		marker := &xq.VarRef{Name: "\x00unit\x00"}
		return m + "i|" + stream + "|" + fmt.Sprint(p.tsids[arg]) + "|" + rewrap(marker, p.wrappers).String()
	}
	return m + "g|" + stream + "|" + p.expr.String()
}

func (p *piece) indexed() bool { return len(p.tsids) > 0 }

// unitKey orders the partial-match state the way the full plan orders
// its output: piece position, then fn:bytsid argument position, then
// filler id ascending (the store's tsid-index order). Generic pieces use
// arg = fid = -1.
type unitKey struct{ piece, arg, fid int }

func keyLess(a, b unitKey) bool {
	if a.piece != b.piece {
		return a.piece < b.piece
	}
	if a.arg != b.arg {
		return a.arg < b.arg
	}
	return a.fid < b.fid
}

// entry is one buffered result item with its serialized form (the delta
// identity full mode diffs by).
type entry struct {
	item   xq.Item
	serial string
}

// unit is one partial-match buffer: the current output of one piece
// slice. In count mode units hold only their cardinality.
type unit struct {
	entries []entry
	count   int
}

// pendingArrival is a fragment whose validTime is still in the future of
// the last evaluation instant: it is invisible now and dirties its units
// when the clock crosses its validTime.
type pendingArrival struct {
	fid, tsid int
	at        time.Time
}

// Engine is the incremental evaluator for one standing query. All
// methods are safe for concurrent use; arrivals are serialized
// internally.
type Engine struct {
	mu        sync.Mutex
	q         *xcql.Query
	store     *fragment.Store
	structure *tagstruct.Structure
	stream    string
	countMode bool
	stripped  xq.Expr // plan after count-strip; the fallback whole-plan expr
	pieces    []*piece

	units      map[unitKey]*unit
	order      []unitKey // unit keys in global output order
	refcount   map[string]int
	bytes      int64
	hwm        int64
	itemCount  int // standing entries across all units
	countTotal int // count mode: standing total across all units

	tsidOf   map[int]int // filler id -> tsid (observed or hole-announced)
	parentOf map[int]int // filler id -> filler id of the payload holding its hole
	pending  []pendingArrival

	seeded   bool
	fellBack bool
	lastAt   time.Time

	lastTotal float64 // count mode: last emitted total
	emitted   bool    // count mode: a total has been emitted

	// tracer, when set, records an "inc.recompute" span per traced
	// arrival (dirty-unit detail included). nil = off.
	tracer *obs.FlightRecorder
}

// SetFlightRecorder attaches a flight recorder: traced arrivals record
// an "inc.recompute" span parented to the fragment's context. nil
// detaches.
func (e *Engine) SetFlightRecorder(rec *obs.FlightRecorder) {
	e.mu.Lock()
	e.tracer = rec
	e.mu.Unlock()
}

// New builds an incremental evaluator for q. It never fails: plans the
// decomposer cannot split run as one broad piece (full re-evaluation per
// arrival, still byte-identical).
func New(q *xcql.Query) *Engine {
	e := &Engine{
		q:        q,
		units:    make(map[unitKey]*unit),
		refcount: make(map[string]int),
		tsidOf:   make(map[int]int),
		parentOf: make(map[int]int),
	}
	e.stripped = q.Plan
	if c, ok := q.Plan.(*xq.Call); ok && c.Name == "count" && len(c.Args) == 1 {
		e.countMode = true
		e.stripped = c.Args[0]
	}
	e.stream = soleStream(e.stripped)
	if e.stream != "" {
		e.store = q.StreamStore(e.stream)
	}
	if e.store != nil {
		e.structure = e.store.Structure()
	}
	e.pieces = e.decompose()
	return e
}

// soleStream returns the one stream name the plan mentions, or "" when
// it mentions none or several (the decomposer then cannot bind a store
// and falls back to broad pieces).
func soleStream(plan xq.Expr) string {
	names := make(map[string]bool)
	xcql.WalkPlan(plan, func(n xq.Expr) {
		switch t := n.(type) {
		case *xq.StreamRef:
			names[t.Name] = true
		case *xq.Call:
			switch t.Name {
			case xcql.FnView, xcql.FnRoot, xcql.FnByTSID:
				if s := xcql.PlanLitString(t.Args, 0); s != "" {
					names[s] = true
				}
			case xcql.FnFillers:
				if s := xcql.PlanLitString(t.Args, 1); s != "" {
					names[s] = true
				}
			case xcql.FnIProj, xcql.FnVProj:
				if s := xcql.PlanLitString(t.Args, 3); s != "" {
					names[s] = true
				}
			}
		}
	})
	if len(names) != 1 {
		return ""
	}
	for s := range names {
		return s
	}
	return ""
}

// decompose splits the stripped plan into pieces: peel identity FLWOR
// shells and elementwise projection wrappers off the top, flatten the
// resulting sequence expression, and classify each strand.
func (e *Engine) decompose() []*piece {
	if e.store == nil || e.structure == nil {
		return []*piece{{expr: e.stripped, broad: true, clock: true}}
	}
	expr := e.stripped
	var wrappers []wrapper
	for {
		if fl, ok := expr.(*xq.FLWOR); ok && identityFLWOR(fl) {
			expr = fl.Clauses[0].(xq.ForClause).In
			continue
		}
		if c, ok := expr.(*xq.Call); ok && (c.Name == xcql.FnIProj || c.Name == xcql.FnVProj) && len(c.Args) == 4 {
			wrappers = append(wrappers, wrapper{name: c.Name, args: c.Args})
			expr = c.Args[0]
			continue
		}
		break
	}
	splittable := wrappersSplittable(wrappers)
	if len(wrappers) > 0 && !splittable {
		// the projection is not elementwise over this window; keep the
		// whole wrapped plan as one piece
		return []*piece{e.genericPiece(rewrap(expr, wrappers))}
	}
	var flat []xq.Expr
	var flatten func(xq.Expr)
	flatten = func(x xq.Expr) {
		if s, ok := x.(*xq.SeqExpr); ok {
			for _, it := range s.Items {
				flatten(it)
			}
			return
		}
		flat = append(flat, x)
	}
	flatten(expr)
	if len(flat) == 0 {
		// statically empty plan
		return []*piece{e.genericPiece(rewrap(expr, wrappers))}
	}
	pieces := make([]*piece, 0, len(flat))
	for _, x := range flat {
		pieces = append(pieces, e.classify(x, wrappers))
	}
	return pieces
}

// classify turns one plan strand into an indexed piece when it is a pure
// fn:bytsid access on the bound stream, else a generic piece.
func (e *Engine) classify(x xq.Expr, wrappers []wrapper) *piece {
	if c, ok := x.(*xq.Call); ok && c.Name == xcql.FnByTSID && len(c.Args) >= 2 &&
		xcql.PlanLitString(c.Args, 0) == e.stream {
		tsids := make([]int, 0, len(c.Args)-1)
		for i := 1; i < len(c.Args); i++ {
			id := xcql.PlanLitInt(c.Args, i)
			if id <= 0 || e.structure.ByID(id) == nil {
				tsids = nil
				break
			}
			tsids = append(tsids, id)
		}
		if tsids != nil {
			return &piece{wrappers: wrappers, tsids: tsids, clock: len(wrappers) > 0}
		}
	}
	return e.genericPiece(rewrap(x, wrappers))
}

// genericPiece wraps an arbitrary sub-plan and derives its relevance set
// from the access paths it mentions. Anything whose data dependencies
// cannot be bounded through the Tag Structure makes the piece broad.
func (e *Engine) genericPiece(x xq.Expr) *piece {
	p := &piece{expr: x, relevant: make(map[int]bool)}
	addTag := func(id int) {
		t := e.structure.ByID(id)
		if t == nil {
			p.broad = true
			return
		}
		p.relevant[id] = true
		for _, d := range e.structure.FragmentedUnder(t) {
			p.relevant[d.ID] = true
		}
	}
	xcql.WalkPlan(x, func(n xq.Expr) {
		switch t := n.(type) {
		case *xq.Call:
			switch t.Name {
			case xcql.FnView:
				p.broad = true
			case xcql.FnRoot:
				if xcql.PlanLitString(t.Args, 0) == e.stream && e.structure.Root != nil {
					addTag(e.structure.Root.ID)
				} else {
					p.broad = true
				}
			case xcql.FnFillers:
				if xcql.PlanLitString(t.Args, 1) != e.stream {
					p.broad = true
				} else if id := xcql.PlanLitInt(t.Args, 2); id > 0 {
					addTag(id)
				} else {
					p.broad = true
				}
			case xcql.FnByTSID:
				if xcql.PlanLitString(t.Args, 0) != e.stream {
					p.broad = true
					break
				}
				for i := 1; i < len(t.Args); i++ {
					if id := xcql.PlanLitInt(t.Args, i); id > 0 {
						addTag(id)
					} else {
						p.broad = true
					}
				}
			case xcql.FnIProj, xcql.FnVProj:
				p.clock = true
			default:
				// builtin or user function: unknown data dependencies
				p.broad = true
			}
		case *xq.StreamRef:
			p.broad = true
		case *xq.IntervalProj, *xq.VersionProj:
			p.clock = true
		case *xq.Literal, *xq.SeqExpr, *xq.Path, *xq.Filter, *xq.BinOp, *xq.Unary,
			*xq.If, *xq.FLWOR, *xq.Quantified, *xq.VarRef, *xq.ContextItem,
			*xq.ElemCtor, *xq.AttrCtorExpr, *xq.LastMarker:
			// structural: data flows from the intrinsic leaves handled above
		default:
			p.broad = true
		}
	})
	return p
}

// identityFLWOR reports "for $x in E return $x": a shell the decomposer
// may peel because it reproduces E's sequence item for item.
func identityFLWOR(fl *xq.FLWOR) bool {
	if len(fl.Clauses) != 1 || fl.Where != nil || len(fl.OrderBy) != 0 {
		return false
	}
	fc, ok := fl.Clauses[0].(xq.ForClause)
	if !ok || fc.PosVar != "" {
		return false
	}
	v, ok := fl.Return.(*xq.VarRef)
	return ok && v.Name == fc.Var
}

// wrappersSplittable reports whether every stripped projection is
// elementwise, i.e. distributing it over a partition of its input
// reproduces the whole-input result: interval projections with
// context-free endpoints (each input node is clipped independently), and
// version projections only with the keep-all window #[1,last] (any other
// window numbers versions across the WHOLE input sequence).
func wrappersSplittable(ws []wrapper) bool {
	for _, w := range ws {
		switch w.name {
		case xcql.FnIProj:
			if !constOnly(w.args[1]) || !constOnly(w.args[2]) {
				return false
			}
		case xcql.FnVProj:
			if !keepAllWindow(w.args) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// constOnly reports the expression depends on nothing but literals (it
// may still resolve symbolically against "now" — that is what the clock
// flag handles).
func constOnly(e xq.Expr) bool {
	ok := true
	xcql.WalkPlan(e, func(n xq.Expr) {
		switch n.(type) {
		case *xq.Literal, *xq.BinOp, *xq.Unary:
		default:
			ok = false
		}
	})
	return ok
}

// keepAllWindow reports the compiled version window is exactly #[1,last].
func keepAllWindow(args []xq.Expr) bool {
	from, ok1 := args[1].(*xq.Literal)
	to, ok2 := args[2].(*xq.Literal)
	if !ok1 || !ok2 {
		return false
	}
	f, isNum := from.Val.(float64)
	s, isStr := to.Val.(string)
	return isNum && f == 1 && isStr && s == "last"
}

// rewrap re-applies stripped projection wrappers (outermost first in ws)
// around x.
func rewrap(x xq.Expr, ws []wrapper) xq.Expr {
	for i := len(ws) - 1; i >= 0; i-- {
		args := make([]xq.Expr, len(ws[i].args))
		args[0] = x
		copy(args[1:], ws[i].args[1:])
		x = &xq.Call{Name: ws[i].name, Args: args}
	}
	return x
}

// SharedPass memoizes unit evaluations across the engines of one shared
// query group for one arrival: the first engine to evaluate a unit
// signature stores its result (or error), and every later engine with
// the same signature takes the memo instead of re-evaluating. Sharing is
// sound only when the participating engines read the same store, the
// same evaluation instant and the same limits — the registry scopes one
// pass to exactly one (fragment, instant, limits, store) cell and
// discards it afterwards, so no invalidation protocol is needed. Items
// handed out through a pass are shared across engines; consumers must
// not mutate them (the same rule deltas already carry).
type SharedPass struct {
	mu      sync.Mutex
	results map[string]sharedResult
	// serials memoizes node-item serializations across the group's
	// engines: every member diffs the same shared item pointers, so the
	// (dominant) serialization cost is paid once per item per arrival
	// instead of once per member.
	serials map[*xmldom.Node]string
	hits    int64
	misses  int64
}

type sharedResult struct {
	seq xq.Sequence
	err error
}

// NewSharedPass returns an empty per-arrival memo.
func NewSharedPass() *SharedPass {
	return &SharedPass{
		results: make(map[string]sharedResult),
		serials: make(map[*xmldom.Node]string),
	}
}

// serial is itemSerial with a cross-engine memo for node items (atomic
// items serialize trivially and are not worth a map entry).
func (sp *SharedPass) serial(it xq.Item) string {
	n, ok := it.(*xmldom.Node)
	if !ok {
		return itemSerial(it)
	}
	sp.mu.Lock()
	s, ok := sp.serials[n]
	sp.mu.Unlock()
	if ok {
		return s
	}
	s = itemSerial(it)
	sp.mu.Lock()
	sp.serials[n] = s
	sp.mu.Unlock()
	return s
}

// serialOf resolves one item's delta serial, through the shared pass's
// memo when one is active.
func serialOf(it xq.Item, sp *SharedPass) string {
	if sp == nil {
		return itemSerial(it)
	}
	return sp.serial(it)
}

// Hits is the number of unit evaluations served from the memo.
func (sp *SharedPass) Hits() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.hits
}

// Misses is the number of unit evaluations computed into the memo — the
// actual work the whole shared group performed this arrival.
func (sp *SharedPass) Misses() int64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	return sp.misses
}

func (sp *SharedPass) lookup(key string) (xq.Sequence, error, bool) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	r, ok := sp.results[key]
	if ok {
		sp.hits++
	}
	return r.seq, r.err, ok
}

func (sp *SharedPass) store(key string, seq xq.Sequence, err error) {
	sp.mu.Lock()
	sp.results[key] = sharedResult{seq: seq, err: err}
	sp.misses++
	sp.mu.Unlock()
}

// Apply ingests one fragment arrival (already added to the store by the
// caller) at evaluation instant at, recomputes only the dirty units, and
// returns the delta: the items whose serialized form was absent from the
// previous result, in result order. A nil fragment is a pure clock
// advance (re-evaluate projections and newly visible pending arrivals
// only). An error (e.g. a budget trip in some unit) aborts the arrival
// atomically: no state changes, and the caller may Reseed.
func (e *Engine) Apply(f *fragment.Fragment, at time.Time, lim xcql.Limits, stats *obs.EvalStats) (xq.Sequence, error) {
	return e.ApplyShared(f, at, lim, stats, nil)
}

// ApplyShared is Apply drawing unit evaluations from (and contributing
// them to) a registry-scoped SharedPass; sp may be nil for unshared
// evaluation. See SharedPass for the sharing contract.
func (e *Engine) ApplyShared(f *fragment.Fragment, at time.Time, lim xcql.Limits, stats *obs.EvalStats, sp *SharedPass) (xq.Sequence, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var rsp *obs.Span
	if f != nil {
		rsp = e.tracer.Start(f.Trace, "inc.recompute").Annotate(e.stream, f.TSID, f.Seq)
	}
	defer rsp.End()
	if !e.seeded || at.Before(e.lastAt) {
		// first evaluation, or a clock regression (visibility may shrink
		// and popped pending arrivals would be lost): rebuild everything
		rsp.SetDetail("full-recompute")
		return e.recomputeAll(at, lim, stats, false, sp)
	}
	dirty := make(map[unitKey]bool)
	if at.After(e.lastAt) {
		for _, k := range e.order {
			if e.pieces[k.piece].clock {
				dirty[k] = true
			}
		}
	}
	var still []pendingArrival
	for _, p := range e.pending {
		if !p.at.After(at) {
			e.markArrival(p.fid, p.tsid, dirty)
		} else {
			still = append(still, p)
		}
	}
	e.pending = still
	if f != nil {
		if err := e.ingest(f); err != nil {
			// hole identity turned out ambiguous: permanently stop
			// decomposing and recompute the whole plan from here on
			e.fallback()
			rsp.SetDetail("fallback-full")
			return e.recomputeAll(at, lim, stats, false, sp)
		}
		if f.ValidTime.After(at) {
			e.pending = append(e.pending, pendingArrival{fid: f.FillerID, tsid: f.TSID, at: f.ValidTime})
		} else {
			e.markArrival(f.FillerID, f.TSID, dirty)
		}
	}
	if rsp != nil {
		rsp.SetDetail(fmt.Sprintf("dirty=%d units=%d", len(dirty), len(e.order)))
	}
	seq, err := e.applyDirty(dirty, at, lim, stats, sp)
	if err != nil {
		// the popped pending events and this arrival's dirty marks are
		// lost; un-seed so the next evaluation rebuilds from the store
		e.seeded = false
		return nil, err
	}
	return seq, nil
}

// Reseed rebuilds all incremental state from the store and re-emits the
// entire current result — the recovery step after Invalidate: a lost
// fragment may have orphaned state, so everything is recomputed and
// everything re-emits (mirroring full mode's reset delta map).
func (e *Engine) Reseed(at time.Time, lim xcql.Limits, stats *obs.EvalStats) (xq.Sequence, error) {
	return e.ReseedShared(at, lim, stats, nil)
}

// ReseedShared is Reseed drawing unit evaluations from a SharedPass
// (nil for unshared).
func (e *Engine) ReseedShared(at time.Time, lim xcql.Limits, stats *obs.EvalStats, sp *SharedPass) (xq.Sequence, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.recomputeAll(at, lim, stats, true, sp)
}

// recomputeAll rebuilds containment and pending state from the store,
// ensures a unit for everything the store holds, and recomputes every
// unit. With reseed, the previous-result memory is cleared first so the
// whole result re-emits as delta.
func (e *Engine) recomputeAll(at time.Time, lim xcql.Limits, stats *obs.EvalStats, reseed bool, sp *SharedPass) (xq.Sequence, error) {
	e.rebuildContainment(at)
	if reseed {
		e.refcount = make(map[string]int)
		for _, u := range e.units {
			u.entries = nil
			u.count = 0
		}
		e.bytes = 0
		e.itemCount = 0
		e.countTotal = 0
		e.emitted = false
	}
	for pi, p := range e.pieces {
		if !p.indexed() {
			e.ensureUnit(unitKey{pi, -1, -1})
			continue
		}
		for ai, tsid := range p.tsids {
			for _, fid := range e.fidsForTSID(tsid) {
				e.ensureUnit(unitKey{pi, ai, fid})
			}
		}
	}
	dirty := make(map[unitKey]bool, len(e.order))
	for _, k := range e.order {
		dirty[k] = true
	}
	seq, err := e.applyDirty(dirty, at, lim, stats, sp)
	if err != nil {
		e.seeded = false
		return nil, err
	}
	e.seeded = true
	return seq, nil
}

// rebuildContainment rescans the whole store: hole announcements give
// the parent links the per-arrival walk-up climbs, and versions with
// future validTimes are queued as pending visibility events (a fragment
// already stored can still "happen" later).
func (e *Engine) rebuildContainment(at time.Time) {
	e.tsidOf = make(map[int]int)
	e.parentOf = make(map[int]int)
	e.pending = nil
	if e.store == nil || e.fellBack {
		return
	}
	for _, fid := range e.store.FillerIDs() {
		for _, v := range e.store.Versions(fid) {
			if err := e.ingest(v); err != nil {
				e.fallback()
				return
			}
			if v.ValidTime.After(at) {
				e.pending = append(e.pending, pendingArrival{fid: v.FillerID, tsid: v.TSID, at: v.ValidTime})
			}
		}
	}
}

// ingest records a fragment's containment facts: its own tsid, and for
// every hole in its payload the parent link and the hole's announced
// tsid. A contradiction (same filler id, different tsid or parent) is an
// error — the caller falls back to whole-plan recomputation.
func (e *Engine) ingest(f *fragment.Fragment) error {
	if prev, ok := e.tsidOf[f.FillerID]; ok && prev != f.TSID {
		return fmt.Errorf("inc: filler %d seen with tsid %d and %d", f.FillerID, prev, f.TSID)
	}
	e.tsidOf[f.FillerID] = f.TSID
	var err error
	if f.Payload != nil {
		f.Payload.Walk(func(n *xmldom.Node) bool {
			if err != nil {
				return false
			}
			if !fragment.IsHole(n) {
				return true
			}
			hid, herr := fragment.HoleID(n)
			if herr != nil {
				return false
			}
			if prev, ok := e.parentOf[hid]; ok && prev != f.FillerID {
				err = fmt.Errorf("inc: filler %d held by both filler %d and %d", hid, prev, f.FillerID)
				return false
			}
			e.parentOf[hid] = f.FillerID
			if ht := fragment.HoleTSID(n); ht > 0 {
				if prev, ok := e.tsidOf[hid]; ok && prev != ht {
					err = fmt.Errorf("inc: filler %d announced with tsid %d and %d", hid, prev, ht)
					return false
				}
				e.tsidOf[hid] = ht
			}
			return false // holes have no children worth descending into
		})
	}
	return err
}

// markArrival dirties every unit the arrival (fid, tsid) can reach: the
// filler's own units, the generic pieces whose relevance set contains
// its tag, and — climbing the containment links — every ancestor
// filler's units, since materialization pulls the arrival's content into
// their output. The climb stops at orphans (parent not yet announced):
// unreachable content cannot be in any current output.
func (e *Engine) markArrival(fid, tsid int, dirty map[unitKey]bool) {
	e.markLevel(fid, tsid, dirty, true)
	visited := map[int]bool{fid: true}
	cur := fid
	for {
		parent, ok := e.parentOf[cur]
		if !ok || visited[parent] {
			break
		}
		visited[parent] = true
		e.markLevel(parent, e.tsidOf[parent], dirty, false)
		cur = parent
	}
}

// markLevel dirties one containment level. Generic pieces react only to
// the arrival's own tag (direct): their relevance sets are already
// closed downward over the Tag Structure, so ancestors need no extra
// marking there.
func (e *Engine) markLevel(fid, tsid int, dirty map[unitKey]bool, direct bool) {
	for pi, p := range e.pieces {
		if !p.indexed() {
			if direct && (p.broad || p.relevant[tsid]) {
				dirty[unitKey{pi, -1, -1}] = true
			}
			continue
		}
		for ai, pt := range p.tsids {
			if pt == tsid {
				k := unitKey{pi, ai, fid}
				e.ensureUnit(k)
				dirty[k] = true
			}
		}
	}
}

// fallback permanently abandons decomposition: the current buffered
// entries are re-homed into a single broad piece (so the refcount-based
// delta memory stays exact) that recomputes the whole stripped plan on
// every arrival.
func (e *Engine) fallback() {
	if e.fellBack {
		return
	}
	e.fellBack = true
	var old []entry
	var oldCount int
	for _, k := range e.order {
		old = append(old, e.units[k].entries...)
		oldCount += e.units[k].count
	}
	e.pieces = []*piece{{expr: e.stripped, broad: true, clock: true}}
	k := unitKey{0, -1, -1}
	e.units = map[unitKey]*unit{k: {entries: old, count: oldCount}}
	e.order = []unitKey{k}
}

// applyDirty is the three-phase arrival commit. Phase A recomputes every
// dirty unit without touching engine state, so an error aborts the
// arrival atomically. Phase B walks the dirty units in global output
// order and collects the delta: items whose serial had refcount zero
// (absent from the previous result) — new serials can only appear in
// dirty units, and their first occurrence in the new result is their
// first occurrence across the dirty units, so this reproduces the
// full-mode diff byte for byte. Phase C swaps the buffers and moves the
// refcounts.
func (e *Engine) applyDirty(dirty map[unitKey]bool, at time.Time, lim xcql.Limits, stats *obs.EvalStats, sp *SharedPass) (xq.Sequence, error) {
	// HandlerInvocations is charged in evalUnitShared, once per unit
	// actually executed: a registry shared-pass hit runs no handler, so
	// a group of K queries sharing a path reports ~1× handler cost.
	// the dirty keys in global output order; iterating these instead of
	// all of e.order keeps the per-arrival cost proportional to what the
	// arrival touched, not to the store size
	keys := make([]unitKey, 0, len(dirty))
	for k := range dirty {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	fresh := make(map[unitKey][]entry, len(dirty))
	counts := make(map[unitKey]int, len(dirty))
	for _, k := range keys {
		seq, err := e.evalUnitShared(k, at, lim, stats, sp)
		if err != nil {
			return nil, err
		}
		if e.countMode {
			counts[k] = len(seq)
		} else {
			es := make([]entry, len(seq))
			for i, it := range seq {
				es[i] = entry{item: it, serial: serialOf(it, sp)}
			}
			fresh[k] = es
		}
	}
	var delta xq.Sequence
	if e.countMode {
		for _, k := range keys {
			u := e.units[k]
			e.countTotal += counts[k] - u.count
			u.count = counts[k]
		}
		tot := float64(e.countTotal)
		if !e.emitted || tot != e.lastTotal {
			delta = xq.Sequence{tot}
		}
		e.lastTotal = tot
		e.emitted = true
		e.bytes = int64(len(e.order)) * 8
	} else {
		emittedNow := make(map[string]bool)
		for _, k := range keys {
			for _, en := range fresh[k] {
				if e.refcount[en.serial] == 0 && !emittedNow[en.serial] {
					emittedNow[en.serial] = true
					delta = append(delta, en.item)
				}
			}
		}
		for _, k := range keys {
			u := e.units[k]
			e.itemCount += len(fresh[k]) - len(u.entries)
			for _, en := range u.entries {
				e.bytes -= int64(len(en.serial))
				if e.refcount[en.serial]--; e.refcount[en.serial] == 0 {
					delete(e.refcount, en.serial)
				}
			}
			u.entries = fresh[k]
			for _, en := range u.entries {
				e.bytes += int64(len(en.serial))
				e.refcount[en.serial]++
			}
		}
	}
	if e.bytes > e.hwm {
		e.hwm = e.bytes
	}
	items := e.itemCount
	if e.countMode {
		items = len(e.order)
	}
	stats.AddBufferedItems(items)
	stats.MaxBufferHWMBytes(e.hwm)
	e.lastAt = at
	return delta, nil
}

// evalUnitShared consults the shared pass (when present) before falling
// through to a real unit evaluation: a hit returns the memoized result
// of an identical unit already evaluated by another engine in the group
// this arrival, charging only the shared-hit counter; a miss evaluates
// and publishes the result for the rest of the group.
func (e *Engine) evalUnitShared(k unitKey, at time.Time, lim xcql.Limits, stats *obs.EvalStats, sp *SharedPass) (xq.Sequence, error) {
	if sp == nil {
		stats.AddHandlerInvocations(1)
		return e.evalUnit(k, at, lim, stats)
	}
	key := e.unitSigKey(k)
	if seq, err, ok := sp.lookup(key); ok {
		stats.AddSharedUnitHits(1)
		return seq, err
	}
	stats.AddHandlerInvocations(1)
	seq, err := e.evalUnit(k, at, lim, stats)
	sp.store(key, seq, err)
	stats.AddSharedUnitMisses(1)
	return seq, err
}

// unitSigKey is the SharedPass memo key of one unit: the piece slot's
// structural signature plus the filler id the unit is bound to (indexed
// units only; generic units evaluate the whole sub-plan and carry no
// filler binding).
func (e *Engine) unitSigKey(k unitKey) string {
	p := e.pieces[k.piece]
	arg := k.arg
	if !p.indexed() {
		arg = 0
	}
	return p.sig(arg, e.stream, !e.countMode) + "#" + fmt.Sprint(k.fid)
}

// evalUnit computes one unit's current output through the engine's own
// sub-plan evaluator. Indexed units fetch their filler's annotated
// versions (the same store read the fn:bytsid intrinsic groups by filler
// id) through the query's access path, which charges the fetch the way
// the query's plan charges it, and re-apply the piece's projection
// wrappers; generic units evaluate their whole sub-plan. Count mode skips
// materialization — only cardinality survives.
func (e *Engine) evalUnit(k unitKey, at time.Time, lim xcql.Limits, stats *obs.EvalStats) (xq.Sequence, error) {
	p := e.pieces[k.piece]
	if !p.indexed() {
		return e.q.EvalSubPlan(p.expr, at, lim, stats, !e.countMode)
	}
	els := e.q.ReadFiller(e.store, k.fid, at, stats)
	items := make([]xq.Expr, len(els))
	for i, el := range els {
		items[i] = &xq.Literal{Val: el}
	}
	expr := rewrap(&xq.SeqExpr{Items: items}, p.wrappers)
	return e.q.EvalSubPlan(expr, at, lim, stats, !e.countMode)
}

// ensureUnit registers a unit key, keeping the global order sorted.
func (e *Engine) ensureUnit(k unitKey) *unit {
	if u, ok := e.units[k]; ok {
		return u
	}
	u := &unit{}
	e.units[k] = u
	i := sort.Search(len(e.order), func(i int) bool { return keyLess(k, e.order[i]) })
	e.order = append(e.order, unitKey{})
	copy(e.order[i+1:], e.order[i:])
	e.order[i] = k
	return u
}

// fidsForTSID lists the distinct filler ids stored under a tsid,
// ascending — the iteration order of the store's tsid index.
func (e *Engine) fidsForTSID(tsid int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, f := range e.store.ByTSID(tsid) {
		if !seen[f.FillerID] {
			seen[f.FillerID] = true
			out = append(out, f.FillerID)
		}
	}
	sort.Ints(out)
	return out
}

// ItemsSnapshot returns the full current result (what a full
// re-evaluation at the last applied instant would produce): the buffered
// units concatenated in output order. The items are shared with the
// buffers; callers must not mutate them.
func (e *Engine) ItemsSnapshot() xq.Sequence {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seeded {
		return nil
	}
	if e.countMode {
		return xq.Sequence{e.lastTotal}
	}
	var out xq.Sequence
	for _, k := range e.order {
		for _, en := range e.units[k].entries {
			out = append(out, en.item)
		}
	}
	return out
}

// BufferedBytes is the current partial-match buffer size in serialized
// bytes — the live value behind the registry gauge.
func (e *Engine) BufferedBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.bytes
}

// BufferHWMBytes is the high-water mark of BufferedBytes.
func (e *Engine) BufferHWMBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hwm
}

// Store returns the fragment store the engine bound to, or nil when the
// plan mentions no single stream. The registry uses pointer identity to
// decide which engines may share a pass.
func (e *Engine) Store() *fragment.Store {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.store
}

// UnitSignatures lists the structural signatures of the engine's piece
// slots (one per indexed fn:bytsid argument, one per generic piece), in
// plan order. The registry refcounts these across the queries of a
// shared group: a signature held by K queries is evaluated once per
// arrival and shared K ways.
func (e *Engine) UnitSignatures() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var sigs []string
	for _, p := range e.pieces {
		if p.indexed() {
			for ai := range p.tsids {
				sigs = append(sigs, p.sig(ai, e.stream, !e.countMode))
			}
		} else {
			sigs = append(sigs, p.sig(0, e.stream, !e.countMode))
		}
	}
	return sigs
}

// Strategy describes how the plan decomposed, for EXPLAIN-style output:
// e.g. "3 pieces (2 indexed), count mode".
func (e *Engine) Strategy() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	indexed := 0
	for _, p := range e.pieces {
		if p.indexed() {
			indexed++
		}
	}
	s := fmt.Sprintf("%d pieces (%d indexed)", len(e.pieces), indexed)
	if e.countMode {
		s += ", count mode"
	}
	if e.fellBack {
		s += ", fallback"
	}
	return s
}

// itemSerial is the delta identity of one result item — the same
// serialization the continuous query's full mode diffs by.
func itemSerial(it xq.Item) string {
	if n, ok := it.(*xmldom.Node); ok {
		return n.String()
	}
	return xq.StringValue(it)
}
