// Package inc is the standing-query engine: it evaluates a compiled XCQL
// query against a fragment stream incrementally. Instead of re-running the
// whole plan on every arrival (O(store) per fragment), it decomposes the
// plan's access paths into pieces scheduled off the Tag Structure, keeps
// per-piece partial-match state keyed by filler id, and on each arrival
// recomputes only the units reachable from that fragment's tag — emitting
// the delta directly. This is the FluX-style schema-driven scheduling of
// the paper's continuous model: the Tag Structure tells the engine, per
// arriving tsid, exactly which standing sub-results the fragment can
// touch.
//
// The engine is pinned byte-identical to re-evaluating the query from
// scratch at every arrival and diffing consecutive results (see
// TestDiffHarnessIncremental): every unit evaluates through the same
// engine code paths (xcql.UnitEval), unit outputs concatenate in the
// plan's own order, and deltas are the serials absent from the previous
// result, in first-occurrence order.
//
// Decomposition is best-effort and always sound: a plan (or plan part)
// the decomposer does not understand becomes a single "broad" piece that
// recomputes on every arrival, which is full re-evaluation in disguise.
// The fast path is QaC+'s tsid jump (xcql:bytsid) under layers
// that distribute over their input — projections, and FLWORs whose body
// reaches the store only through the bound variable: its units are
// individual fillers, the unit of work is the bindings of one filler, and
// one arrival touches one unit per matching piece plus its containment
// ancestors, independent of store size. The same layers distribute over a
// filler's versions, so a unit keeps its output cut by version and re-runs
// only the versions an arrival changed: a re-announced parent costs its
// new version — and the one whose lifespan it closes, when the body
// observes a stamp — not its history. And
// an aggregate over a child step distributes over the children: a re-run
// version folds the per-child terms the engine keeps (fold.go) instead of
// re-crossing its holes.
//
// The clock is scheduled the same way. Every version's evaluation hands
// back a validity horizon — the earliest instant at which a comparison it
// made against the moving "now" comes out differently — and a clock
// advance re-runs only the versions whose horizon it has reached: a charge
// inside ?[now-PT1H,now] re-runs the versions of its account holding it an
// hour later, and nothing before.
//
// The engine binds to the single stream the plan mentions. A plan over
// several streams (or none) is one broad piece that every evaluation
// re-runs, the clock's included: no index says which stored versions an
// instant makes visible there. Items handed out in deltas and snapshots
// are shared with the internal buffers — callers must not mutate them.
package inc

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// piece is one top-level strand of the decomposed plan. An indexed piece
// (tsids non-empty) has one unit per filler of its tags: the unit runs
// expr with $xcql.UnitVar bound to that filler's versions — "for $a in
// xcql:bytsid(S, t) where W return R" has the body "for $a in $unit where
// W return R" — and an arrival dirties the unit of its own filler and of
// every filler containing it. A generic piece is one unit that runs expr
// as it stands, dirtied by the arrivals of the tags it depends on.
type piece struct {
	expr  xq.Expr
	tsids []int // indexed: the tsids of its xcql:bytsid jump
	deps
	// folded is what an indexed piece's units run in place of expr when
	// its body folds aggregates from per-child terms (fold.go), nil when
	// expr runs as it stands; folds says which, for Strategy.
	folded xq.Expr
	folds  []string
	// bare says that nothing the body runs observes the stamps of the
	// versions an indexed unit reads (xcql.UnitBare): the read builds no
	// top, and a version keeps its output when only its lifespan's end
	// moved (planRerun).
	bare bool
}

// body is the expression the piece's units evaluate.
func (p *piece) body() xq.Expr {
	if p.folded != nil {
		return p.folded
	}
	return p.expr
}

// deps is what an expression's result depends on besides the values it
// is handed, as far as the plan shows it.
type deps struct {
	// relevant is the set of tsids whose arrivals can change the result:
	// the tags the expression names plus every fragmented tag below them
	// (materialization recurses through holes, so descendant arrivals
	// change the output).
	relevant map[int]bool
	// broad, when set, says why the dependencies cannot be bounded: every
	// arrival of every tag may change the result.
	broad string
	// rooted marks an expression that reads a stream from the top (the
	// view, the root filler, a tsid jump) and not only through the nodes
	// it is handed.
	rooted bool
}

func (p *piece) indexed() bool { return len(p.tsids) > 0 }

// unitRef is the slot of an indexed piece's body its unit's own filler
// versions go in.
var unitRef = &xq.VarRef{Name: xcql.UnitVar}

// unitKey orders the partial-match state the way the full plan orders
// its output: piece position, then xcql:bytsid tsid position, then
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
// identity, see ItemSerial).
type entry struct {
	item   xq.Item
	serial string
}

// unit is one partial-match buffer: the current output of one piece
// slice, and how long it stays valid. In count mode units hold only their
// cardinality.
type unit struct {
	key     unitKey
	entries []entry
	count   int
	// horizon is the earliest instant at which the unit's output can
	// differ with the store unchanged (xcql.UnitEval.Eval): a clock
	// advance re-runs the unit only on reaching it. Zero: never.
	horizon time.Time
	// versions cuts the output of an indexed unit whose filler had several
	// visible versions by version, so that an arrival re-runs only the
	// versions it changed; nil re-runs them all.
	versions *versionMemo
	due      int32 // position in Engine.due, -1 when horizon is zero
	dirty    bool  // queued for the arrival in progress
}

// versionMemo is an indexed unit's output cut by version, in read order
// (validTime): version i's items are entries[spans[i-1].end:spans[i].end],
// the first from 0 — in count mode the ends are running counts.
type versionMemo struct{ spans []versionSpan }

// versionSpan is what one version contributed to its unit's output: the
// version — its payload, and with the next span's its lifespan —, where its
// items end, and its own horizon as Unix seconds and nanoseconds, which
// hold every instant and the zero time (never) exactly, packed beside end
// so that a span takes 24 bytes.
type versionSpan struct {
	v    *fragment.Fragment
	sec  int64
	end  int32
	nsec int32
}

func (s versionSpan) horizon() time.Time { return time.Unix(s.sec, int64(s.nsec)).UTC() }

// dueHeap orders the units that have a horizon by it, earliest first.
type dueHeap []*unit

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].horizon.Before(h[j].horizon) }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].due, h[j].due = int32(i), int32(j) }
func (h *dueHeap) Push(x any)        { u := x.(*unit); u.due = int32(len(*h)); *h = append(*h, u) }
func (h *dueHeap) Pop() any {
	old := *h
	u := old[len(old)-1]
	old[len(old)-1] = nil
	*h, u.due = old[:len(old)-1], -1
	return u
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
	mu sync.Mutex
	q  *xcql.Query
	// frame is the environment every unit evaluates in, built at the first
	// evaluation and re-armed by each one.
	frame     *xcql.UnitEval
	store     *fragment.Store
	structure *tagstruct.Structure
	stream    string
	countMode bool
	stripped  xq.Expr // plan after count-strip; the fallback whole-plan expr
	pieces    []*piece
	// sites are the aggregates the pieces fold from per-child terms,
	// numbered as the folded bodies number them, and terms keeps the terms.
	sites []xcql.FoldSite
	terms termMemo

	order      []*unit // every unit, in global output order (ascending key)
	due        dueHeap // units with a horizon, next to pending: what the clock alone dirties
	refcount   map[string]int
	bytes      int64
	hwm        int64
	itemCount  int // standing entries across all units
	countTotal int // count mode: standing total across all units

	tsidOf   map[int]int // filler id -> tsid (observed or hole-announced)
	parentOf map[int]int // filler id -> filler id of the payload holding its hole
	pending  []pendingArrival

	// dirty and results are the arrival in progress: the units to
	// recompute and what they evaluated to; holes are the containment
	// levels its climb passed, and reran counts the versions it re-ran.
	// Kept across arrivals for their capacity only.
	dirty   []*unit
	results []unitResult
	holes   []holeMark
	reran   int

	// run is the per-version evaluation of one unit, and keep and each its
	// two methods, bound once with the frame.
	run  versionRun
	keep fragment.Filter
	each func(xq.Sequence, time.Time)

	seeded   bool
	fellBack bool
	lastAt   time.Time
	// stored is the store's Len when the last evaluation started, a count
	// that only grows: a fragment-less evaluation that finds it grown
	// rebuilds.
	stored int

	lastTotal float64 // count mode: last emitted total
	emitted   bool    // count mode: a total has been emitted

	// tracer, when set, records an "inc.recompute" span per traced
	// arrival (dirty-unit detail included). nil = off.
	tracer *obs.FlightRecorder
}

// unitResult is one dirty unit's fresh evaluation, held until every
// dirty unit has evaluated without error.
type unitResult struct {
	entries  []entry
	count    int
	horizon  time.Time
	versions *versionMemo
}

// holeMark says that the arrival in progress reached unit u's filler
// through the hole of filler id: only the versions holding that hole re-run
// for it.
type holeMark struct {
	u  *unit
	id int
}

// SetFlightRecorder attaches a flight recorder: traced arrivals record
// an "inc.recompute" span parented to the fragment's context. nil
// detaches.
func (e *Engine) SetFlightRecorder(rec *obs.FlightRecorder) {
	e.mu.Lock()
	e.tracer = rec
	e.mu.Unlock()
}

// New builds the standing evaluator for q. It never fails: plans the
// decomposer cannot split run as one broad piece (full re-evaluation per
// arrival, still byte-identical).
func New(q *xcql.Query) *Engine {
	e := &Engine{
		q:        q,
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
	e.terms.sites = len(e.sites)
	return e
}

// soleStream returns the one stream name the plan mentions, or "" when
// it mentions none or several (the decomposer then cannot bind a store
// and falls back to broad pieces).
func soleStream(plan xq.Expr) string {
	names := make(map[string]bool)
	xcql.WalkPlan(plan, func(n xq.Expr) {
		if t, ok := n.(*xq.StreamRef); ok {
			names[t.Name] = true
		} else if in := xcql.IntrinsicOf(n); in != nil {
			names[in.Stream] = true
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

// layer is one operator peeled off the top of the plan that maps its
// input sequence item by item: run over each part of a partition of the
// input, its outputs concatenate to its output over the whole input. It
// is a compiled projection (the input is Args[0]) or a binding loop (the
// input is the first for clause's sequence).
type layer struct {
	call *xq.Call
	loop *xq.FLWOR
}

func (l layer) input() xq.Expr {
	if l.call != nil {
		return l.call.Args[0]
	}
	return l.loop.Clauses[0].(xq.ForClause).In
}

// over rebuilds the layer around another input.
func (l layer) over(x xq.Expr) xq.Expr {
	if l.call != nil {
		return &xq.Call{Name: l.call.Name, Args: append([]xq.Expr{x}, l.call.Args[1:]...), Callee: l.call.Callee}
	}
	fl := *l.loop
	fc := fl.Clauses[0].(xq.ForClause)
	fc.In = x
	fl.Clauses = append([]any{fc}, fl.Clauses[1:]...)
	return &fl
}

// peel takes the top layer off x when it distributes over its input:
//
//   - an interval projection, which clips every input node on its own;
//   - a version projection with the keep-all window #[1,last] (any other
//     window numbers versions across the WHOLE input sequence);
//   - a FLWOR whose first clause is a for without a positional variable,
//     with no order by: every binding runs the rest of the loop on its
//     own, and the outputs concatenate in binding order.
//
// In each case everything besides the input — window bounds, further
// clauses, where, return — must reach the store only through what the
// input hands it and otherwise be pure: its dependencies, with the unit
// slot as input, are neither rooted nor broad. (The plan is closed and
// peeling only descends through inputs, so no layer has a free variable
// to begin with.)
func (e *Engine) peel(x xq.Expr) (layer, bool) {
	var l layer
	switch t := x.(type) {
	case *xq.Call:
		in := xcql.IntrinsicOf(t)
		if in == nil || in.Op != xcql.FnIProj && in.Op != xcql.FnVProj || !xcql.Distributes(t) {
			return l, false
		}
		l.call = t
	case *xq.FLWOR:
		if len(t.Clauses) == 0 || len(t.OrderBy) != 0 {
			return l, false
		}
		if fc, ok := t.Clauses[0].(xq.ForClause); !ok || fc.PosVar != "" {
			return l, false
		}
		l.loop = t
	default:
		return l, false
	}
	d := e.dependencies(l.over(unitRef))
	return l, d.broad == "" && !d.rooted
}

// passThrough reports "for $x in E return $x": a loop that reproduces its
// input item for item and so adds nothing to a body.
func (l layer) passThrough() bool {
	if l.loop == nil || len(l.loop.Clauses) != 1 || l.loop.Where != nil {
		return false
	}
	v, ok := l.loop.Return.(*xq.VarRef)
	return ok && v.Name == l.loop.Clauses[0].(xq.ForClause).Var
}

// decompose splits the stripped plan into pieces: peel the distributing
// layers off the top, flatten the sequence expression under them, and
// classify each strand with the layers as its body.
func (e *Engine) decompose() []*piece {
	if e.store == nil || e.structure == nil {
		return []*piece{{expr: e.stripped, deps: deps{broad: "the plan does not name exactly one registered stream"}}}
	}
	expr := e.stripped
	var layers []layer // outermost first
	for {
		l, ok := e.peel(expr)
		if !ok {
			break
		}
		if !l.passThrough() {
			layers = append(layers, l)
		}
		expr = l.input()
	}
	body := func(x xq.Expr) xq.Expr {
		for i := len(layers) - 1; i >= 0; i-- {
			x = layers[i].over(x)
		}
		return x
	}
	var strands []xq.Expr
	var flatten func(xq.Expr)
	flatten = func(x xq.Expr) {
		if s, ok := x.(*xq.SeqExpr); ok {
			for _, it := range s.Items {
				flatten(it)
			}
			return
		}
		strands = append(strands, x)
	}
	flatten(expr)
	if len(strands) == 0 {
		// statically empty plan
		strands = []xq.Expr{expr}
	}
	pieces := make([]*piece, 0, len(strands))
	for _, x := range strands {
		jump := e.tsidJump(x)
		p := &piece{}
		if jump != nil {
			p.tsids = jump.TSIDs
			// the unit reads its filler's versions itself: a filter the
			// translator pushed below the jump becomes a predicate on them,
			// and a lifespan bound the projection it stands for
			var own xq.Expr = unitRef
			if pred := jump.Pred(); pred != nil {
				own = &xq.Filter{Base: own, Preds: []xq.Expr{pred}}
			}
			if proj := jump.Project(own); proj != nil {
				own = proj
			}
			p.expr = body(own)
			e.fold(p)
			p.bare = xcql.UnitBare(p.body())
		} else {
			p.expr = body(x)
			p.deps = e.dependencies(p.expr)
		}
		pieces = append(pieces, p)
	}
	return pieces
}

// tsidJump returns the strand when it is a pure xcql:bytsid access on the
// bound stream — its tsids are what an indexed piece's units are the
// fillers of —, whose lifespan bound, if any, maps each version on its own;
// else nil.
func (e *Engine) tsidJump(x xq.Expr) *xcql.Intrinsic {
	in := xcql.IntrinsicOf(x)
	if in == nil || in.Op != xcql.FnByTSID || in.Stream != e.stream || !xcql.Distributes(x.(*xq.Call)) {
		return nil
	}
	for _, id := range in.TSIDs {
		if e.structure.ByID(id) == nil {
			return nil
		}
	}
	return in
}

// dependencies derives what x depends on from the access paths it
// mentions. Anything whose data dependencies cannot be bounded through
// the Tag Structure makes it broad; the first such thing is the reason
// given.
func (e *Engine) dependencies(x xq.Expr) deps {
	d := deps{relevant: make(map[int]bool)}
	broad := func(format string, args ...any) {
		if d.broad == "" {
			d.broad = fmt.Sprintf(format, args...)
		}
	}
	addTag := func(id int) {
		t := e.structure.ByID(id)
		if t == nil {
			broad("names tag id %d, which the structure does not have", id)
			return
		}
		d.relevant[id] = true
		for _, below := range e.structure.FragmentedUnder(t) {
			d.relevant[below.ID] = true
		}
	}
	bound := func(name string) bool {
		if name != e.stream {
			broad("reads stream %q beside %q", name, e.stream)
		}
		return name == e.stream
	}
	xcql.WalkPlan(x, func(n xq.Expr) {
		switch t := n.(type) {
		case *xq.Call:
			in := xcql.IntrinsicOf(t)
			if in == nil {
				// a builtin that reads nothing but its arguments is as
				// structural as an operator; a user function, or a builtin
				// that reaches outside them, may read anything
				if !e.q.PureCall(t.Name) {
					broad("calls %s, which is not a pure builtin", t.Name)
				}
				break
			}
			switch in.Op {
			case xcql.FnView:
				d.rooted = true
				broad("materializes the whole view")
			case xcql.FnRoot:
				d.rooted = true
				if !bound(in.Stream) {
					break
				}
				if e.structure.Root != nil {
					addTag(e.structure.Root.ID)
				} else {
					broad("the structure has no root tag")
				}
			case xcql.FnFillers, xcql.FnByTSID:
				if in.Op == xcql.FnByTSID {
					d.rooted = true
				}
				if bound(in.Stream) {
					for _, id := range in.TSIDs {
						addTag(id)
					}
				}
			case xcql.FnIProj, xcql.FnVProj:
				// reads through its input only
			}
		case *xq.StreamRef:
			d.rooted = true
			broad("reads stream(%q) as a whole", t.Name)
		case *xq.ElemCtor:
			if t.NameExpr != nil || t.Name == fragment.HoleTag {
				broad("may construct a hole")
			}
		case *xq.Literal, *xq.SeqExpr, *xq.Path, *xq.Filter, *xq.BinOp, *xq.Unary,
			*xq.If, *xq.FLWOR, *xq.Quantified, *xq.VarRef, *xq.ContextItem,
			*xq.AttrCtorExpr, *xq.LastMarker, *xq.IntervalProj, *xq.VersionProj:
			// structural: data flows from the intrinsic leaves handled above
		case *xq.Module:
			broad("declares functions")
		default:
			broad("contains %T", n)
		}
	})
	return d
}

// Apply ingests one fragment arrival (already added to the store by the
// caller) at evaluation instant at, recomputes only the dirty units, and
// returns the delta: the items whose serialized form was absent from the
// previous result, in result order, and beside them those serialized
// forms — the strings the engine diffed by, for whoever puts the delta on
// a wire (nil in count mode, whose one item is a number). A nil fragment
// is a pure clock advance (re-evaluate the units whose horizon the clock
// reached and newly visible pending arrivals only). One arrival is one
// evaluation to the runtime's admission control (SetMaxConcurrentEvals),
// however many units it runs: past the bound it fails with an
// *xcql.OverloadError. An error (that one, or e.g. a budget trip in some
// unit) aborts the arrival atomically: no state changes, and the next
// arrival rebuilds from the store. So does a fragment-less evaluation of a
// store that took fragments since the last evaluation: nothing handed
// them in, so the engine re-reads the store, as a from-scratch evaluation
// would.
func (e *Engine) Apply(f *fragment.Fragment, at time.Time, lim xcql.Limits, stats *obs.EvalStats) (xq.Sequence, []string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.q.Admit(); err != nil {
		e.seeded = false
		return nil, nil, err
	}
	defer e.q.Release()
	e.reran, e.terms.runs = 0, 0
	var rsp *obs.Span
	if f != nil {
		rsp = e.tracer.Start(f.Trace, "inc.recompute").Annotate(e.stream, f.TSID, f.Seq)
	}
	defer rsp.End()
	missed := false
	if e.store != nil {
		// arrivals may be stored ahead of their Apply; a fragment-less
		// evaluation comes after every write that was ever handed in
		n := e.store.Len()
		missed, e.stored = f == nil && n > e.stored, n
	}
	if !e.seeded || at.Before(e.lastAt) || missed {
		// first evaluation, a clock regression (visibility may shrink and
		// popped pending arrivals would be lost), or fragments stored behind
		// the engine's back: rebuild everything
		rsp.SetDetail("full-recompute")
		return e.recomputeAll(at, lim, stats)
	}
	// the clock alone dirties what it has reached: the units whose
	// horizon has come, and the stored versions that become visible. A
	// unit evaluated at this very instant is current, whatever its horizon
	// (a collapsed one is the instant itself).
	for at.After(e.lastAt) && len(e.due) > 0 && !e.due[0].horizon.After(at) {
		e.mark(heap.Pop(&e.due).(*unit))
	}
	still := e.pending[:0]
	for _, p := range e.pending {
		if !p.at.After(at) {
			e.markArrival(p.fid, p.tsid)
		} else {
			still = append(still, p)
		}
	}
	e.pending = still
	if e.store == nil {
		// unbound: the one broad piece re-runs on every evaluation
		e.mark(e.order[0])
	} else if f != nil {
		if err := e.ingest(f); err != nil {
			// hole identity turned out ambiguous: permanently stop
			// decomposing and recompute the whole plan from here on
			e.fallback()
			rsp.SetDetail("fallback-full")
			return e.recomputeAll(at, lim, stats)
		}
		if f.ValidTime.After(at) {
			e.pending = append(e.pending, pendingArrival{fid: f.FillerID, tsid: f.TSID, at: f.ValidTime})
		} else {
			e.markArrival(f.FillerID, f.TSID)
		}
	}
	dirty := len(e.dirty)
	seq, serials, err := e.applyDirty(at, lim, stats)
	if rsp != nil {
		rsp.SetDetail("dirty=" + strconv.Itoa(dirty) + " units=" + strconv.Itoa(len(e.order)) + " versions=" + strconv.Itoa(e.reran) + " terms=" + strconv.Itoa(e.terms.runs))
	}
	if err != nil {
		// the popped horizons and pending events and this arrival's dirty
		// marks are lost; un-seed so the next evaluation rebuilds from the
		// store
		e.seeded = false
		return nil, nil, err
	}
	return seq, serials, nil
}

// recomputeAll rebuilds containment and pending state from the store,
// ensures a unit for everything the store holds, and recomputes every
// unit, every version of it. The previous-result memory survives, so the
// delta stays relative to what was last emitted; re-emitting a standing
// result is the registry's business (it renders StandingDelta), not the
// engine's.
func (e *Engine) recomputeAll(at time.Time, lim xcql.Limits, stats *obs.EvalStats) (xq.Sequence, []string, error) {
	e.rebuildContainment(at)
	clear(e.terms.kept)
	for pi, p := range e.pieces {
		if !p.indexed() {
			e.ensureUnit(unitKey{pi, -1, -1})
			continue
		}
		for ai, tsid := range p.tsids {
			fids, _ := e.store.TSIDFillers(tsid)
			for _, fid := range fids {
				e.ensureUnit(unitKey{pi, ai, fid})
			}
		}
	}
	for _, u := range e.order {
		u.versions = nil
		e.mark(u)
	}
	seq, serials, err := e.applyDirty(at, lim, stats)
	if err != nil {
		e.seeded = false
		return nil, nil, err
	}
	e.seeded = true
	return seq, serials, nil
}

// rebuildContainment rereads everything the store's index holds: hole
// announcements give the parent links the per-arrival walk-up climbs, and
// versions with future validTimes are queued as pending visibility events
// (a fragment already stored can still "happen" later).
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
// error — the caller falls back to whole-plan recomputation. The engine
// ingests every version the store holds (rebuildContainment) and then
// every arrival, and a store holds a linked version's predecessor, so the
// holes a version keeps are recorded under its filler already: of a linked
// version only the holes it appends are walked (EachNewHole), and an
// account's re-announcement costs its new hole, not its history.
func (e *Engine) ingest(f *fragment.Fragment) error {
	if prev, ok := e.tsidOf[f.FillerID]; ok && prev != f.TSID {
		return fmt.Errorf("inc: filler %d seen with tsid %d and %d", f.FillerID, prev, f.TSID)
	}
	e.tsidOf[f.FillerID] = f.TSID
	var err error
	record := func(hid, ht int) bool {
		if prev, ok := e.parentOf[hid]; ok && prev != f.FillerID {
			err = fmt.Errorf("inc: filler %d held by both filler %d and %d", hid, prev, f.FillerID)
			return false
		}
		e.parentOf[hid] = f.FillerID
		if ht > 0 {
			if prev, ok := e.tsidOf[hid]; ok && prev != ht {
				err = fmt.Errorf("inc: filler %d announced with tsid %d and %d", hid, prev, ht)
				return false
			}
			e.tsidOf[hid] = ht
		}
		return true
	}
	// the holes a decoded fragment's decode collected: nothing is built
	f.EachNewHole(record)
	return err
}

// mark queues a unit for the arrival in progress, once.
func (e *Engine) mark(u *unit) {
	if !u.dirty {
		u.dirty = true
		e.dirty = append(e.dirty, u)
	}
}

// markArrival dirties every unit the arrival (fid, tsid) can reach: the
// filler's own units, the generic pieces whose relevance set contains
// its tag, and — climbing the containment links — every ancestor
// filler's units, since their bodies and materialization pull the
// arrival's content into their output. The climb stops at orphans
// (parent not yet announced): unreachable content cannot be in any
// current output.
func (e *Engine) markArrival(fid, tsid int) {
	e.markLevel(fid, tsid, -1)
	e.terms.drop(fid)
	// containment is as deep as the Tag Structure; the climbed ids guard
	// against a cycle a malformed stream could announce
	var buf [8]int
	climbed := append(buf[:0], fid)
	for {
		parent, ok := e.parentOf[fid]
		if !ok || slices.Contains(climbed, parent) {
			return
		}
		climbed = append(climbed, parent)
		e.markLevel(parent, e.tsidOf[parent], fid)
		e.terms.drop(parent)
		fid = parent
	}
}

// markLevel dirties one containment level: the arrival's own (hole < 0),
// or an ancestor reached through the hole of filler hole — of whose
// versions only those holding that hole re-run for it. Generic pieces react
// only to the arrival's own tag: their relevance sets are already closed
// downward over the Tag Structure, so ancestors need no extra marking
// there.
func (e *Engine) markLevel(fid, tsid, hole int) {
	for pi, p := range e.pieces {
		if !p.indexed() {
			if hole < 0 && (p.broad != "" || p.relevant[tsid]) {
				e.mark(e.ensureUnit(unitKey{pi, -1, -1}))
			}
			continue
		}
		for ai, pt := range p.tsids {
			if pt != tsid {
				continue
			}
			u := e.ensureUnit(unitKey{pi, ai, fid})
			e.mark(u)
			if hole >= 0 && u.versions != nil {
				e.holes = append(e.holes, holeMark{u, hole})
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
	u := &unit{key: unitKey{0, -1, -1}, due: -1}
	for _, old := range e.order {
		u.entries = append(u.entries, old.entries...)
		u.count += old.count
		old.dirty = false
	}
	e.pieces = []*piece{{expr: e.stripped, deps: deps{broad: "the stream announced a filler under two parents or tags"}}}
	e.order = []*unit{u}
	e.due, e.dirty = nil, e.dirty[:0]
}

// applyDirty is the three-phase arrival commit over the marked units.
// Phase A recomputes every dirty unit without touching engine state, so
// an error aborts the arrival atomically. Phase B walks the dirty units
// in global output order and collects the delta: items whose serial had
// refcount zero (absent from the previous result, and not emitted earlier
// in this walk — the fresh entries are counted in as they pass) — new
// serials can only appear in dirty units, and their first occurrence in
// the new result is their first occurrence across the dirty units, so
// this reproduces the from-scratch diff byte for byte. Phase C swaps the
// buffers, releases the old entries' refcounts and re-files the units
// under their new horizons.
func (e *Engine) applyDirty(at time.Time, lim xcql.Limits, stats *obs.EvalStats) (xq.Sequence, []string, error) {
	// the dirty units in global output order; iterating these instead of
	// all of e.order keeps the per-arrival cost proportional to what the
	// arrival touched, not to the store size
	dirty := e.dirty
	if len(dirty) > 1 {
		slices.SortFunc(dirty, func(a, b *unit) int {
			if keyLess(a.key, b.key) {
				return -1
			}
			return 1
		})
	}
	defer func() {
		for _, u := range dirty {
			u.dirty = false
		}
		clear(e.results)
		clear(e.holes)
		e.dirty, e.results, e.holes = dirty[:0], e.results[:0], e.holes[:0]
	}()
	for _, u := range dirty {
		stats.AddHandlerInvocations(1)
		r, err := e.reevalUnit(u, at, lim, stats)
		if err != nil {
			return nil, nil, err
		}
		e.results = append(e.results, r)
	}
	var delta xq.Sequence
	var serials []string
	if e.countMode {
		for i, u := range dirty {
			e.countTotal += e.results[i].count - u.count
			u.count, u.versions = e.results[i].count, e.results[i].versions
		}
		tot := float64(e.countTotal)
		if !e.emitted || tot != e.lastTotal {
			delta = xq.Sequence{tot}
		}
		e.lastTotal = tot
		e.emitted = true
		e.bytes = int64(len(e.order)) * 8
	} else {
		for i := range dirty {
			for _, en := range e.results[i].entries {
				if e.refcount[en.serial] == 0 {
					delta = append(delta, en.item)
					serials = append(serials, en.serial)
				}
				e.refcount[en.serial]++
				e.bytes += int64(len(en.serial))
			}
		}
		for i, u := range dirty {
			e.itemCount += len(e.results[i].entries) - len(u.entries)
			for _, en := range u.entries {
				e.bytes -= int64(len(en.serial))
				if e.refcount[en.serial]--; e.refcount[en.serial] == 0 {
					delete(e.refcount, en.serial)
				}
			}
			u.entries, u.versions = e.results[i].entries, e.results[i].versions
		}
	}
	for i, u := range dirty {
		e.schedule(u, e.results[i].horizon)
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
	return delta, serials, nil
}

// schedule files a unit under its new horizon.
func (e *Engine) schedule(u *unit, horizon time.Time) {
	u.horizon = horizon
	switch {
	case horizon.IsZero():
		if u.due >= 0 {
			heap.Remove(&e.due, int(u.due))
		}
	case u.due >= 0:
		heap.Fix(&e.due, int(u.due))
	default:
		heap.Push(&e.due, u)
	}
}

// reevalUnit computes one unit's current output and horizon in the
// engine's evaluation frame. A generic unit evaluates its whole sub-plan.
// An indexed unit reads its filler's annotated versions (the same store
// read the xcql:bytsid intrinsic groups by filler id) through the query's
// access path, which charges the read the way the query's plan charges it,
// and runs the piece's body over them — over all of them at once when the
// filler has one visible version and prev, the unit as last evaluated, has
// no versionMemo; otherwise version by version, and then only the versions
// planRerun finds changed: the read builds no top for the others, whose
// spans of prev's output are kept. Every item is serialized once, when its
// version runs: the serial is what the engine diffs by and what a delta
// carries to the wire.
// Count mode skips materialization and serials — only cardinality survives.
func (e *Engine) reevalUnit(prev *unit, at time.Time, lim xcql.Limits, stats *obs.EvalStats) (unitResult, error) {
	k := prev.key
	p := e.pieces[k.piece]
	if e.frame == nil {
		e.frame = e.q.NewUnitEval()
		e.keep, e.each = e.run.admit, e.run.collect
		e.run.serialize = !e.countMode
		if len(e.sites) > 0 {
			e.frame.SetFolds(e.sites, &e.terms)
		}
	}
	if !p.indexed() {
		seq, horizon, err := e.frame.Eval(p.body(), nil, 0, nil, false, nil, at, lim, stats, !e.countMode)
		if err != nil {
			return unitResult{}, err
		}
		return e.result(seq, horizon), nil
	}
	memo := prev.versions
	r := &e.run
	defer r.reset()
	for {
		vs := e.store.Versions(k.fid)
		n := len(vs)
		for n > 0 && vs[n-1].ValidTime.After(at) {
			n--
		}
		vs = vs[:n]
		// one version: nothing to keep apart — unless the unit is bare and
		// its tag temporal, when the filler's next version closes this one's
		// lifespan and this one keeps its output (planRerun)
		if memo == nil && n < 2 && (n == 0 || !p.bare ||
			e.structure.ByID(p.tsids[k.arg]).Type == tagstruct.Event) {
			seq, horizon, err := e.frame.Eval(p.body(), e.store, k.fid, nil, p.bare, nil, at, lim, stats, !e.countMode)
			if err != nil {
				return unitResult{}, err
			}
			e.reran += n
			return e.result(seq, horizon), nil
		}
		e.planRerun(vs, memo, prev, at, p.bare)
		_, _, err := e.frame.Eval(p.body(), e.store, k.fid, e.keep, p.bare, e.each, at, lim, stats, !e.countMode)
		e.reran += len(r.ends)
		if err != nil {
			return unitResult{}, err
		}
		if r.asked == n {
			return e.spliceVersions(vs, memo, prev), nil
		}
		// a writer stored a version between the two reads of the group: what
		// ran is not what was planned; run again, every version
		memo = nil
		r.reset()
	}
}

// result keeps one evaluation's output as a unit's: the items and their
// serials, or in count mode their number.
func (e *Engine) result(seq xq.Sequence, horizon time.Time) unitResult {
	r := unitResult{count: len(seq), horizon: horizon}
	if !e.countMode {
		r.entries = make([]entry, len(seq))
		for i, it := range seq {
			r.entries[i] = entry{item: it, serial: ItemSerial(it)}
		}
	}
	return r
}

// versionRun is the per-version evaluation of one unit in progress: by
// visible position, the span of the memo each version keeps (-1: it
// re-runs) and how many the read has asked about, then what the re-run
// versions produced, in read order.
type versionRun struct {
	keep      []int
	holes     []int // the fillers the arrival reached the unit's filler through
	asked     int
	serialize bool
	fresh     []entry
	ends      []int // the j-th re-run version's items end at fresh[ends[j]]; count mode: running counts
	horizons  []time.Time
}

// admit is the read's filter: it is asked once per visible version, in
// validTime order (fragment.Access), and lets through the versions that
// re-run.
func (r *versionRun) admit(fragment.Version) bool {
	i := r.asked
	r.asked++
	return i < len(r.keep) && r.keep[i] < 0
}

// collect takes one re-run version's output.
func (r *versionRun) collect(seq xq.Sequence, horizon time.Time) {
	end := len(seq)
	if r.serialize {
		for _, it := range seq {
			r.fresh = append(r.fresh, entry{item: it, serial: ItemSerial(it)})
		}
		end = len(r.fresh)
	} else if len(r.ends) > 0 {
		end += r.ends[len(r.ends)-1]
	}
	r.ends, r.horizons = append(r.ends, end), append(r.horizons, horizon)
}

// reset forgets the evaluation, and the items it held.
func (r *versionRun) reset() {
	clear(r.fresh)
	r.keep, r.holes, r.fresh, r.ends, r.horizons = r.keep[:0], r.holes[:0], r.fresh[:0], r.ends[:0], r.horizons[:0]
	r.asked = 0
}

// planRerun decides which of the visible versions vs re-run. A version
// keeps its span of memo — prev's output cut by version — when it is the
// version the span was made of, its lifespan still ends where it did (at
// the next version's validTime, or now), the span's horizon is ahead of a
// clock that moved, and its payload holds none of the holes the arrival
// reached it through: these are everything a version's output depends on.
// A bare unit's body (piece.bare) observes no stamp, so its versions'
// outputs cannot depend on where their lifespans end, and their ends are
// not compared. memo's versions are a subsequence of vs — the store only
// inserts — and are matched in order, so a version stored mid-history
// re-runs with the one whose lifespan it closes, and no other — or, bare,
// alone.
func (e *Engine) planRerun(vs []*fragment.Fragment, memo *versionMemo, prev *unit, at time.Time, bare bool) {
	r := &e.run
	var spans []versionSpan
	if memo != nil {
		spans = memo.spans
		for _, h := range e.holes {
			if h.u == prev {
				r.holes = append(r.holes, h.id)
			}
		}
	}
	moved := at.After(e.lastAt)
	j := 0
	for i, v := range vs {
		keep := -1
		if j < len(spans) && spans[j].v == v {
			next := i+1 < len(vs)
			sameEnd := bare || next == (j+1 < len(spans)) && (!next || vs[i+1].ValidTime.Equal(spans[j+1].v.ValidTime))
			h := spans[j].horizon()
			due := moved && !h.IsZero() && !h.After(at)
			if sameEnd && !due && (len(r.holes) == 0 || !holdsHole(v, r.holes)) {
				keep = j
			}
			j++
		}
		r.keep = append(r.keep, keep)
	}
}

// spliceVersions assembles a unit's output from the spans of memo its
// versions kept — in prev's entries — and the outputs of those that
// re-ran, with the memo that cuts it by version.
func (e *Engine) spliceVersions(vs []*fragment.Fragment, memo *versionMemo, prev *unit) unitResult {
	r := &e.run
	spans := make([]versionSpan, len(vs))
	var res unitResult
	for i, j := 0, 0; i < len(vs); i++ {
		var lo, hi int
		var h time.Time
		if m := r.keep[i]; m >= 0 {
			lo, hi = memo.bounds(m)
			h = memo.spans[m].horizon()
		} else {
			lo, hi = r.bounds(j)
			h = r.horizons[j]
			j++
		}
		res.count += hi - lo
		res.horizon = earliest(res.horizon, h)
		spans[i] = versionSpan{v: vs[i], sec: h.Unix(), end: int32(res.count), nsec: int32(h.Nanosecond())}
	}
	if r.serialize {
		res.entries = make([]entry, 0, res.count)
		for i, j := 0, 0; i < len(vs); i++ {
			if m := r.keep[i]; m >= 0 {
				lo, hi := memo.bounds(m)
				res.entries = append(res.entries, prev.entries[lo:hi]...)
			} else {
				lo, hi := r.bounds(j)
				res.entries = append(res.entries, r.fresh[lo:hi]...)
				j++
			}
		}
	}
	if res.count <= math.MaxInt32 {
		res.versions = &versionMemo{spans}
	}
	return res
}

// bounds is where span i's items run in its unit's output.
func (m *versionMemo) bounds(i int) (lo, hi int) {
	if i > 0 {
		lo = int(m.spans[i-1].end)
	}
	return lo, int(m.spans[i].end)
}

// bounds is where re-run version j's items run in fresh.
func (r *versionRun) bounds(j int) (lo, hi int) {
	if j > 0 {
		lo = r.ends[j-1]
	}
	return lo, r.ends[j]
}

// earliest is the earlier of two horizons, the zero time being never.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// holdsHole reports that a version's payload holds, at any depth, the hole
// of one of the fillers ids.
func holdsHole(v *fragment.Fragment, ids []int) bool {
	held := false
	v.EachHole(func(id, _ int) bool {
		held = slices.Contains(ids, id)
		return !held
	})
	return held
}

// ensureUnit returns the unit of a key, registering it in the global
// order when it is new.
func (e *Engine) ensureUnit(k unitKey) *unit {
	i := sort.Search(len(e.order), func(i int) bool { return !keyLess(e.order[i].key, k) })
	if i < len(e.order) && e.order[i].key == k {
		return e.order[i]
	}
	u := &unit{key: k, due: -1}
	e.order = slices.Insert(e.order, i, u)
	return u
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
	for _, u := range e.order {
		for _, en := range u.entries {
			out = append(out, en.item)
		}
	}
	return out
}

// StandingDelta renders the standing result as a re-emission delta: first
// occurrence per serialized form, in output order — what a from-scratch
// evaluation diffed against nothing would emit — with the serials the
// buffers hold already (nil in count mode).
func (e *Engine) StandingDelta() (xq.Sequence, []string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seeded {
		return nil, nil
	}
	if e.countMode {
		return xq.Sequence{e.lastTotal}, nil
	}
	seen := make(map[string]bool, len(e.refcount))
	items := make(xq.Sequence, 0, len(e.refcount))
	serials := make([]string, 0, len(e.refcount))
	for _, u := range e.order {
		for _, en := range u.entries {
			if !seen[en.serial] {
				seen[en.serial] = true
				items, serials = append(items, en.item), append(serials, en.serial)
			}
		}
	}
	return items, serials
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

// Strategy describes how the plan decomposed and which arrivals re-run
// each piece, for EXPLAIN-style output: "1 piece (per-binding on account)"
// recomputes one account's bindings when that account or something under
// it arrives, and "; sum folded over transaction terms" after it says the
// body's sum folds per-transaction terms; "1 piece (generic, broad: calls
// f, which is not a pure builtin)" re-runs the whole plan on every
// arrival, and says why. What
// the clock re-runs is decided per unit and evaluation (unit.horizon), not
// by the plan: the "inc.recompute" span of an arrival counts it.
func (e *Engine) Strategy() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	descs := make([]string, len(e.pieces))
	for i, p := range e.pieces {
		descs[i] = e.describe(p)
	}
	s := "1 piece ("
	if len(e.pieces) != 1 {
		s = strconv.Itoa(len(e.pieces)) + " pieces ("
	}
	s += strings.Join(descs, "; ") + ")"
	if e.countMode {
		s += ", count mode"
	}
	if e.fellBack {
		s += ", fallback"
	}
	return s
}

func (e *Engine) describe(p *piece) string {
	// several tags may share a name (XMark's item under each region)
	tagNames := func(ids []int) string {
		var names []string
		for _, id := range ids {
			if name := e.structure.ByID(id).Name; !slices.Contains(names, name) {
				names = append(names, name)
			}
		}
		return strings.Join(names, ",")
	}
	switch {
	case p.indexed():
		return strings.Join(append([]string{"per-binding on " + tagNames(p.tsids)}, p.folds...), "; ")
	case p.broad != "":
		return "generic, broad: " + p.broad
	}
	ids := make([]int, 0, len(p.relevant))
	for id := range p.relevant {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return "generic on " + tagNames(ids)
}

// ItemSerial is the delta identity of one result item: consecutive
// results are diffed by it, and the registry's wire codec renders items
// with it — one definition, so the two can never drift.
func ItemSerial(it xq.Item) string {
	if n, ok := it.(*xmldom.Node); ok {
		return n.String()
	}
	return xq.StringValue(it)
}
