// Package registry is the multi-tenant standing-query layer: one
// process-wide registry accepts many compiled XCQL registrations, groups
// them by the stores their plans read and their limits, and evaluates each
// partial-match unit they have in common once per arriving fragment
// instead of once per query. Every registration runs the incremental
// engine (internal/inc); within a group, registrations with identical
// plans advance one shared engine per arrival, and registrations with
// different plans — another mode, another set of access paths — share
// individual unit evaluations through an inc.SharedPass: the registry is
// the layer that dedupes the engine's per-tag/per-filler units *across*
// queries.
//
// This is the one implementation of a standing query: a registration
// owns the degrade/re-emit protocol and the delivery accounting, its
// engine the previous-result memory, and stream.ContinuousQuery is a
// registry holding exactly one of them. Every registration's observable
// output — its per-arrival delta stream and its standing result — is
// byte-identical to re-evaluating the query from scratch at every arrival
// and diffing consecutive results (the registry-equivalence harness pins
// this against an oracle that does exactly that). Sharing changes cost,
// never results.
//
// Sharing is scoped for soundness: a group key is the identity of the
// stores the plan reads and a fingerprint of the registration's effective
// limits, so two units share work only when their evaluations read the
// same store state at the same instant under the same budget. What a unit
// computes is its signature (inc.Engine.UnitSignatures): the materialize
// flag, the plan, the stream, the tsid and the body. The plan keeps a scan
// plan's unit (CaQ, QaC: one budget step per hole read) apart from QaC+'s
// (none), so that no registration is handed a budget trip, or a success,
// its own plan would not produce.
// A group's SharedPass is emptied before each arrival; nothing memoized
// outlives the arrival, so there is no cross-arrival invalidation protocol
// to get wrong.
// What surrounds a delivery is owned by what outlives the arrival, and
// reset rather than rebuilt: the group owns the pass, an engine share the
// stats its advance counts into (a member's Query.LastStats is a copy),
// and the serial an engine diffs an item by travels with the delta
// (Result.Serials) to the codec.
//
// Delivery is per-registration with backpressure: a subscriber that
// cannot keep up loses results but never silently — the registration is
// invalidated (its next delivery re-emits the whole standing result)
// and marked degraded with the drop reason, exactly the contract a
// transport gap gets.
//
// The package sits below internal/stream: fragments flow from a stream
// client into a registry, so the client wires itself in
// (stream.Client.AttachRegistry) and nothing here knows about transports.
package registry

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/inc"
	"xcql/internal/obs"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// Result is one delivery to a registration: the delta this arrival
// produced for that query, or the failure that replaced it.
type Result struct {
	// At is the evaluation instant (what "now" resolved to).
	At time.Time
	// Delta contains the items absent (by serialized form) from the
	// registration's previous result, in result order. After an
	// invalidation the whole standing result re-emits here. The full
	// standing result is Registration.ItemsSnapshot: a delivery's cost
	// stays proportional to its delta.
	Delta xq.Sequence
	// Serials, when set, holds the serialized form of every Delta item, in
	// order: the strings the evaluation diffed by, shared — read-only — by
	// every member the same evaluation served, so that a codec writes them
	// instead of serializing the items again per subscriber. Nil when the
	// evaluation had none to hand (count mode, a failed arrival).
	Serials []string
	// Degraded is non-empty while the registration is degraded: lost
	// fragments, a tripped budget, or subscriber backpressure may have
	// narrowed what this delta stream carried; the standing result has
	// been (or will be) re-emitted.
	Degraded string
	// Err is a non-governed evaluation error (e.g. CaQ's fn:view before
	// the root filler exists). The registration stays registered; the
	// arrival produced no delta. Governed failures (budget, deadline,
	// admission) never surface here — they degrade instead.
	Err error
	// TraceID is the trace id of the fragment arrival that produced this
	// delivery (0 when untraced): the link from a subscriber's result
	// back to the publish→fsync→eval→fanout span tree in /v1/tracez. It
	// rides the WebSocket subscribe path as WireResult.Trace.
	TraceID uint64
}

// Options configures one registration.
type Options struct {
	// Incremental is ignored: every registration runs the incremental
	// engine. It stays so that callers that still set it compile.
	Incremental bool
	// Limits bounds each unit evaluation of this registration's engine
	// (see inc.Engine.Apply). The zero
	// value falls back to the compiled query's own Limits.
	Limits xcql.Limits
	// OnResult, when set, delivers synchronously on the arrival
	// goroutine (no backpressure, no drops) — the mode tests and
	// embedded consumers use. When nil, results are delivered through
	// the registration's channel (see Registration.C) with Buffer
	// capacity and backpressure-by-invalidation on overflow.
	OnResult func(Result)
	// Buffer is the delivery channel capacity when OnResult is nil
	// (default 64).
	Buffer int
}

// DefaultBuffer is the delivery-channel capacity when Options.Buffer is
// unset.
const DefaultBuffer = 64

// Registry is the standing-query registry. All methods are safe for
// concurrent use; fragment arrivals are serialized internally.
type Registry struct {
	// evalMu serializes arrivals (Apply/Evaluate): shared passes are
	// scoped to one arrival, so two arrivals must not interleave.
	evalMu sync.Mutex

	mu     sync.Mutex
	clock  func() time.Time
	regs   map[int64]*Registration
	groups map[string]*group
	// order is the groups sorted by key, the order arrivals visit them in.
	// It is replaced, never written in place, where a group comes or goes,
	// so an arrival iterates the slice it read under mu without copying.
	order   []*group
	nextID  int64
	maxRegs int

	// process-level counters, under mu.
	applies     int64
	sharedEvals int64
	sharedSaved int64
	fanout      int64
	overloads   int64
	drops       int64
	reseeds     int64

	// tracer, when set, records "registry.eval" and per-registration
	// "fanout" spans for traced arrivals and flags degraded/backpressure
	// traces. Guarded by mu; nil = off.
	tracer *obs.FlightRecorder
}

// SetFlightRecorder attaches a flight recorder: traced arrivals record
// a "registry.eval" span per sharing group and a "fanout" span per
// registration delivery, and the recorder is propagated into every
// registration's engine (current and future). nil detaches.
func (r *Registry) SetFlightRecorder(rec *obs.FlightRecorder) {
	r.mu.Lock()
	r.tracer = rec
	engines := make([]*inc.Engine, 0, len(r.regs))
	for _, reg := range r.regs {
		engines = append(engines, reg.eng)
	}
	r.mu.Unlock()
	for _, eng := range engines {
		eng.SetFlightRecorder(rec)
	}
}

// New returns an empty registry. The clock supplies evaluation instants
// for Apply; nil means time.Now (tests pin it to the fragment
// timeline).
func New(clock func() time.Time) *Registry {
	if clock == nil {
		clock = time.Now
	}
	return &Registry{
		clock:  clock,
		regs:   make(map[int64]*Registration),
		groups: make(map[string]*group),
	}
}

// SetClock replaces the evaluation clock (nil restores time.Now).
func (r *Registry) SetClock(clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

// SetMaxRegistrations bounds the number of concurrently registered
// standing queries (n <= 0 means unlimited). Over the bound, Register
// rejects fast with a typed *xcql.OverloadError instead of queuing —
// per-registration admission control; existing registrations and their
// shared groups keep evaluating.
func (r *Registry) SetMaxRegistrations(n int) {
	r.mu.Lock()
	r.maxRegs = n
	r.mu.Unlock()
}

// group is one sharing scope: every registration whose plan reads the
// same stores under the same limits.
type group struct {
	key   string
	scope string // the key's readable part: stream names and limits
	// members is sorted by id and, like Registry.order, replaced where
	// membership changes and never written in place.
	members []*Registration
	// sigRef refcounts unit signatures across members: a signature with
	// refcount K is evaluated once per arrival and shared K ways.
	sigRef map[string]int
	// engShares maps plan identities to a single shared inc.Engine:
	// identical registrations advance ONE engine per arrival and fan the
	// delta out, so per-member cost is a delivery, not an evaluation. The
	// engine lives while any member holds it (refcount) and dies with the
	// last Close.
	engShares map[string]*engShare
	// units is the unit memo the members' engines share, emptied at the
	// start of every arrival. Touched under evalMu only.
	units *inc.SharedPass

	sharedEvals int64
	sharedSaved int64
	fanout      int64
	stats       obs.EvalStats
	latency     *obs.Histogram
}

// Registration is one standing query's handle: consume results via C
// (or the OnResult callback), inspect degradation, and Close to
// unregister.
type Registration struct {
	id   int64
	r    *Registry
	q    *xcql.Query
	opts Options
	lim  xcql.Limits
	g    *group
	// planKey is the sharing identity (mode + canonical plan): members of a
	// group with the same key share one advance of one engine per arrival.
	planKey string
	// share holds the engine, possibly shared with the group's other
	// members of the same planKey, and eng is that engine.
	share *engShare
	eng   *inc.Engine
	sigs  []string
	// paths is the plan's access-path signature from EXPLAIN, what
	// RegStats.Group reports.
	paths string

	mu       sync.Mutex
	degraded string
	// needReseed makes the next successful delivery re-emit the whole
	// standing result: set by invalidation and by adopting a live shared
	// engine, cleared only when that delivery is made.
	needReseed bool
	closed     bool
	ch         chan Result
	dropped    int64
	evals      int64
	latency    *obs.Histogram
}

// RegStats is a snapshot of one registration's delivery counters.
type RegStats struct {
	ID int64
	// Group is the registration's own access paths, from EXPLAIN, e.g.
	// "tsid-index(credit:5)"; its sharing group may hold other paths.
	Group string
	// Strategy is how the engine decomposed the plan, and so which
	// arrivals re-run what: per-binding units, or one broad piece and why
	// (inc.Engine.Strategy).
	Strategy    string
	Evaluations int64
	Dropped     int64
	Degraded    string
	// BufferBytes is the standing state the registration holds between
	// arrivals, in serialized bytes: the engine's partial-match buffers
	// (members sharing an engine each report the shared buffers).
	// BufferHWMBytes is its high-water mark — it follows the standing
	// result's size, not the output history.
	BufferBytes    int64
	BufferHWMBytes int64
}

// Stats is a snapshot of the registry's process-level counters.
type Stats struct {
	// Registrations and Groups are the live registration and sharing-
	// group counts.
	Registrations int
	Groups        int
	// Applies counts fragment arrivals (plus fragment-less Evaluate
	// calls) the registry processed.
	Applies int64
	// SharedEvals counts unit evaluations actually performed: the shared
	// passes' misses.
	SharedEvals int64
	// SharedSaved counts evaluations sharing made unnecessary: unit hits
	// plus the extra members a shared engine advance served.
	SharedSaved int64
	// Fanout counts results delivered to registrations.
	Fanout int64
	// Overloads counts Register rejections by admission control.
	Overloads int64
	// BackpressureDrops counts deliveries dropped on full subscriber
	// channels (each one invalidates its registration).
	BackpressureDrops int64
	// Reseeds counts invalidation-triggered re-emissions of a standing
	// result.
	Reseeds int64
}

// GroupStats is a snapshot of one sharing group.
type GroupStats struct {
	// Key renders the group's sharing scope: the streams its members
	// read and, when set, their limits.
	Key string
	// Members is the live registration count.
	Members int
	// SharedUnits counts unit signatures held by more than one member —
	// the units evaluated once and fanned out.
	SharedUnits int
	// SharedEvals / SharedSaved / Fanout mirror the registry-level
	// counters, scoped to this group.
	SharedEvals int64
	SharedSaved int64
	Fanout      int64
	// Stats accumulates the group's evaluation cost counters across
	// arrivals: with K members sharing a unit, FillersScanned grows
	// like one query's cost, not K of them.
	Stats obs.EvalStats
}

// Register adds a compiled standing query. The registration is grouped
// with every earlier registration reading the same stores under the same
// limits and starts receiving a Result per subsequent
// arrival. Registration itself performs no evaluation; the first
// arrival (or Evaluate call) seeds the standing state and emits it as
// the first delta.
func (r *Registry) Register(q *xcql.Query, opts Options) (*Registration, error) {
	if q == nil {
		return nil, fmt.Errorf("registry: nil query")
	}
	lim := opts.Limits
	if lim == (xcql.Limits{}) {
		lim = q.Limits
	}
	reg := &Registration{
		r:       r,
		q:       q,
		opts:    opts,
		lim:     lim,
		latency: obs.NewHistogram(),
	}
	if opts.OnResult == nil {
		buf := opts.Buffer
		if buf <= 0 {
			buf = DefaultBuffer
		}
		reg.ch = make(chan Result, buf)
	}
	reg.eng = inc.New(q)
	reg.sigs = reg.eng.UnitSignatures()
	reg.planKey = q.Mode.String() + "\x00" + q.Plan.String()
	ex := q.Explain()
	key, scope := groupKey(q, ex.Streams, lim)
	reg.paths = accessPaths(ex.Targets)

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.maxRegs > 0 && len(r.regs) >= r.maxRegs {
		r.overloads++
		return nil, &xcql.OverloadError{Active: len(r.regs), Max: r.maxRegs}
	}
	r.nextID++
	reg.id = r.nextID
	g := r.groups[key]
	if g == nil {
		g = &group{
			key:       key,
			scope:     scope,
			sigRef:    make(map[string]int),
			engShares: make(map[string]*engShare),
			units:     inc.NewSharedPass(),
			latency:   obs.NewHistogram(),
		}
		r.groups[key] = g
		at := sort.Search(len(r.order), func(i int) bool { return r.order[i].key > key })
		r.order = slices.Insert(slices.Clone(r.order), at, g)
	}
	reg.g = g
	// ids only grow, so the newest member sorts last
	g.members = append(slices.Clip(g.members), reg)
	for _, sig := range reg.sigs {
		g.sigRef[sig]++
	}
	if share := g.engShares[reg.planKey]; share != nil {
		// adopt the share's live engine: this member's first delivery
		// re-emits the standing result (exactly what a fresh independent
		// query's first evaluation produces), and from then on it consumes
		// the shared advance.
		reg.share, reg.eng = share, share.eng
		share.refs++
		reg.needReseed = true
	} else {
		reg.share = &engShare{eng: reg.eng, refs: 1, plan: q.Mode.String() + "/inc"}
		g.engShares[reg.planKey] = reg.share
	}
	reg.eng.SetFlightRecorder(r.tracer)
	r.regs[reg.id] = reg
	return reg, nil
}

// engShare is one refcounted shared engine: every live registration with
// the same plan identity in the group advances and reads the same engine.
type engShare struct {
	eng  *inc.Engine
	refs int
	// stats is what the engine's advance for the arrival in progress counts
	// into, named plan; every member records a copy as its LastStats.
	// Touched under evalMu only.
	plan  string
	stats obs.EvalStats
}

// groupKey derives a registration's sharing scope: the identity of every
// store the plan reads (sharing across different stores would be unsound)
// and the effective limits fingerprint (sharing across different budgets
// would change which registrations trip). How the plan reads is not part
// of it: the unit signatures carry that. scope is the readable part.
func groupKey(q *xcql.Query, streams []string, lim xcql.Limits) (key, scope string) {
	names := slices.Compact(slices.Sorted(slices.Values(streams)))
	stores := make([]string, len(names))
	for i, name := range names {
		stores[i] = fmt.Sprintf("%s=%p", name, q.StreamStore(name))
	}
	scope = strings.Join(names, ",")
	if scope == "" {
		scope = "(no stream)"
	}
	if lim != (xcql.Limits{}) {
		scope += fmt.Sprintf(" %+v", lim)
	}
	return scope + "\x00" + strings.Join(stores, ","), scope
}

// accessPaths renders the access paths EXPLAIN finds in a plan, sorted and
// deduplicated: "tsid-index(credit:5)".
func accessPaths(targets []xcql.ExplainTarget) string {
	paths := make([]string, 0, len(targets))
	for _, t := range targets {
		p := t.Op + "(" + t.Stream
		if t.TSID > 0 {
			p += fmt.Sprintf(":%d", t.TSID)
		}
		paths = append(paths, p+")")
	}
	slices.Sort(paths)
	if sig := strings.Join(slices.Compact(paths), " "); sig != "" {
		return sig
	}
	return "(no store access)"
}

// C returns the registration's delivery channel (nil when the
// registration uses an OnResult callback). The channel is closed by
// Close.
func (reg *Registration) C() <-chan Result { return reg.ch }

// ID is the registration's registry-unique id.
func (reg *Registration) ID() int64 { return reg.id }

// Query returns the compiled query, e.g. to Explain it.
func (reg *Registration) Query() *xcql.Query { return reg.q }

// Latency is the registration's per-arrival evaluate→deliver histogram.
func (reg *Registration) Latency() *obs.Histogram { return reg.latency }

// ItemsSnapshot returns the registration's full standing result at the
// last applied instant, read off the engine's buffers. The items are
// shared with the engine; callers must not mutate them.
func (reg *Registration) ItemsSnapshot() xq.Sequence { return reg.eng.ItemsSnapshot() }

// Strategy describes how the engine decomposed the plan (see
// inc.Engine.Strategy).
func (reg *Registration) Strategy() string { return reg.eng.Strategy() }

// Degraded reports the current degradation reason, if any.
func (reg *Registration) Degraded() (string, bool) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.degraded, reg.degraded != ""
}

// ClearDegraded re-arms the registration after the consumer handled a
// degradation.
func (reg *Registration) ClearDegraded() {
	reg.mu.Lock()
	reg.degraded = ""
	reg.mu.Unlock()
}

// Invalidate marks the registration degraded for the given reason and
// schedules a re-emission: the next arrival delivers the whole standing
// result as its delta, and every result carries the reason until
// ClearDegraded. Lost fragments, tripped budgets and subscriber
// backpressure all funnel into this. An empty reason schedules the
// re-emission alone and leaves the degradation as it is.
func (reg *Registration) Invalidate(reason string) {
	reg.mu.Lock()
	reg.invalidateLocked(reason)
	reg.mu.Unlock()
}

func (reg *Registration) invalidateLocked(reason string) {
	if reason != "" {
		reg.degraded = reason
	}
	reg.needReseed = true
}

// Stats snapshots the registration's counters.
func (reg *Registration) Stats() RegStats {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return RegStats{
		ID:             reg.id,
		Group:          reg.paths,
		Strategy:       reg.eng.Strategy(),
		Evaluations:    reg.evals,
		Dropped:        reg.dropped,
		Degraded:       reg.degraded,
		BufferBytes:    reg.eng.BufferedBytes(),
		BufferHWMBytes: reg.eng.BufferHWMBytes(),
	}
}

// Close unregisters the standing query. After Close returns, no further
// results are delivered and the delivery channel (if any) is closed.
// Closing an already-closed registration is a no-op.
func (reg *Registration) Close() {
	r := reg.r
	r.mu.Lock()
	if _, live := r.regs[reg.id]; live {
		delete(r.regs, reg.id)
		g := reg.g
		g.members = slices.DeleteFunc(slices.Clone(g.members), func(m *Registration) bool { return m == reg })
		for _, sig := range reg.sigs {
			if g.sigRef[sig]--; g.sigRef[sig] <= 0 {
				delete(g.sigRef, sig)
			}
		}
		if share := g.engShares[reg.planKey]; share != nil {
			if share.refs--; share.refs <= 0 {
				delete(g.engShares, reg.planKey)
			}
		}
		if len(g.members) == 0 {
			delete(r.groups, g.key)
			r.order = slices.DeleteFunc(slices.Clone(r.order), func(o *group) bool { return o == g })
		}
	}
	r.mu.Unlock()

	reg.mu.Lock()
	wasClosed := reg.closed
	reg.closed = true
	reg.mu.Unlock()
	if !wasClosed && reg.ch != nil {
		close(reg.ch)
	}
}

// deliver hands one result to the subscriber. Callback registrations
// deliver synchronously. Channel registrations never block the shared
// arrival path: a full channel drops the result, counts the drop, and
// invalidates the registration so the standing result re-emits once the
// subscriber drains — backpressure degrades one subscriber, never the
// group.
func (reg *Registration) deliver(res Result) bool {
	reg.mu.Lock()
	if reg.closed {
		reg.mu.Unlock()
		return false
	}
	reg.evals++
	if cb := reg.opts.OnResult; cb != nil {
		reg.mu.Unlock()
		cb(res)
		return true
	}
	// the non-blocking send stays under reg.mu: Close marks closed and
	// closes the channel under the same lock, so a send can never race
	// the close
	select {
	case reg.ch <- res:
		reg.mu.Unlock()
		return true
	default:
	}
	reg.dropped++
	reg.invalidateLocked(fmt.Sprintf(
		"degraded: backpressure: subscriber queue full, %d results dropped; standing result will re-emit", reg.dropped))
	reg.mu.Unlock()
	reg.r.mu.Lock()
	reg.r.drops++
	reg.r.mu.Unlock()
	return false
}

// Apply ingests one fragment arrival (already added to the stores the
// queries read) at the registry clock's current instant: each sharing
// group evaluates its members' units once each and fans the
// per-registration deltas out. A nil fragment is a pure re-evaluation (clock advance).
func (r *Registry) Apply(f *fragment.Fragment) {
	r.evalMu.Lock()
	defer r.evalMu.Unlock()
	r.mu.Lock()
	at := r.clock()
	groups := r.order // by key: a deterministic order keeps runs reproducible
	r.applies++
	r.mu.Unlock()
	for _, g := range groups {
		r.applyGroup(g, f, at)
	}
}

// Evaluate runs one fragment-less evaluation (e.g. after preloading a
// store, or on a clock advance): every registration sees it.
func (r *Registry) Evaluate() { r.Apply(nil) }

// groupPass is one sharing group's evaluation of one arrival: the
// arrival's coordinates and what the group's counters gain from it. (The
// shared evaluations made so far travel beside it, as a map of their own:
// inside this struct the map could not stay on the stack.)
type groupPass struct {
	f   *fragment.Fragment
	at  time.Time
	rec *obs.FlightRecorder
	ptc obs.TraceContext // the "registry.eval" span member fan-outs hang off
	tid uint64
	// units is the group's unit memo, emptied for this (fragment, instant)
	// cell.
	units *inc.SharedPass

	stats     obs.EvalStats
	delivered int64
	reseeds   int64
}

// sharedEval is one evaluation shared by every member of a group with
// the same planKey: the delta one advance of the shared engine produced —
// or the error that replaced it. The first member pays for it; the rest
// consume it.
type sharedEval struct {
	delta xq.Sequence
	// serials are the serialized forms of delta's items, its
	// Result.Serials (nil in count mode).
	serials []string
	err     error
	// stats is the advance's cost profile, in the share's scratch.
	stats     *obs.EvalStats
	consumers int
}

// applyGroup evaluates one sharing group for one arrival.
func (r *Registry) applyGroup(g *group, f *fragment.Fragment, at time.Time) {
	start := time.Now()
	r.mu.Lock()
	gp := groupPass{f: f, at: at, rec: r.tracer, units: g.units, stats: obs.EvalStats{Plan: "group"}}
	members := g.members // by id
	r.mu.Unlock()
	gp.units.Reset()

	// a traced arrival gets one "registry.eval" span per sharing group;
	// each member's delivery hangs off it as a "fanout" child, so K
	// subscribers served by one shared evaluation appear as K children of
	// a single eval node in the span tree.
	var gsp *obs.Span
	if f != nil {
		gp.tid = f.Trace.TraceID
		gsp = gp.rec.Start(f.Trace, "registry.eval").Annotate("", f.TSID, f.Seq)
		gp.ptc = gsp.Context()
	}
	shared := make(map[string]sharedEval) // by planKey
	for _, reg := range members {
		reg.apply(&gp, shared)
	}
	g.latency.ObserveExemplar(time.Since(start), gp.tid)

	evals := gp.units.Misses()
	saved := gp.units.Hits()
	for _, ev := range shared {
		saved += int64(ev.consumers - 1)
	}
	if gsp != nil {
		gsp.SetDetail(fmt.Sprintf("group=%s members=%d evals=%d saved=%d", g.scope, len(members), evals, saved))
	}
	gsp.End()
	r.mu.Lock()
	g.sharedEvals += evals
	g.sharedSaved += saved
	g.fanout += gp.delivered
	mergeStats(&g.stats, &gp.stats)
	r.sharedEvals += evals
	r.sharedSaved += saved
	r.fanout += gp.delivered
	r.reseeds += gp.reseeds
	r.mu.Unlock()
}

// apply is one member's share of an arrival: take (or, as the first
// member with this planKey, make) the shared evaluation, fold it into the
// standing state, and deliver what that yields.
func (reg *Registration) apply(gp *groupPass, shared map[string]sharedEval) {
	start := time.Now()
	fsp := gp.rec.Start(gp.ptc, "fanout").SetReg(reg.id)
	defer fsp.End()
	ev, ok := shared[reg.planKey]
	if !ok {
		ev = reg.evaluate(gp)
	}
	ev.consumers++
	shared[reg.planKey] = ev
	// every member publishes the advance's cost profile as its own
	// LastStats (an EXPLAIN on any member shows what this arrival cost the
	// share, not zero)
	reg.q.RecordStats(ev.stats)
	res, outcome := reg.settle(ev, gp)
	res.At, res.TraceID = gp.at, gp.tid
	switch {
	case outcome == "governed":
		gp.rec.Flag(gp.tid, "governed")
	case res.Degraded != "":
		gp.rec.Flag(gp.tid, "degraded")
	}
	if fsp != nil {
		if outcome == "" {
			outcome = fmt.Sprintf("delta=%d", len(res.Delta))
		}
		fsp.SetDetail(outcome)
	}
	if reg.deliver(res) {
		gp.delivered++
	} else {
		gp.rec.Flag(gp.tid, "backpressure")
	}
	reg.latency.ObserveExemplar(time.Since(start), gp.tid)
}

// evaluate performs the shared evaluation of reg's planKey for this
// arrival: one advance of the (possibly shared) engine, whose unit
// evaluations are further deduped across DIFFERENT plans through the
// group's shared pass.
func (reg *Registration) evaluate(gp *groupPass) sharedEval {
	stats := &reg.share.stats
	*stats = obs.EvalStats{Plan: reg.share.plan}
	delta, serials, err := reg.eng.Apply(gp.f, gp.at, reg.lim, stats, gp.units)
	mergeStats(&gp.stats, stats)
	return sharedEval{delta: delta, serials: serials, err: err, stats: stats}
}

// settle is the one standing-state transition: it folds a shared
// evaluation into the registration and returns the delivery it yields,
// plus what to call the outcome where it is not a plain delta
// ("governed", "error", "reseed"). A governed failure (budget, deadline,
// admission) is part of normal operation: the registration is invalidated
// and the delivery carries the reason instead of a delta. Any other error
// is delivered as Result.Err and changes nothing — in particular a
// pending re-emission stays pending. Otherwise the delta is the engine's,
// or, when a re-emission is pending, the whole standing result.
func (reg *Registration) settle(ev sharedEval, gp *groupPass) (Result, string) {
	if ev.err != nil {
		reason, governed := governedFailure(ev.err)
		if !governed {
			return Result{Err: ev.err}, "error"
		}
		reg.Invalidate(reason)
		return Result{Degraded: reason}, "governed"
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	res := Result{Degraded: reg.degraded}
	outcome := ""
	if reg.needReseed {
		// re-emit from the engine's standing buffers rather than rebuild
		// them: the engine may be shared, and its other members are owed
		// nothing but this arrival's delta
		res.Delta, res.Serials = reg.eng.StandingDelta()
		outcome = "reseed"
		gp.reseeds++
	} else {
		res.Delta, res.Serials = ev.delta, ev.serials
	}
	reg.needReseed = false
	return res, outcome
}

// governedFailure classifies an evaluation error as resource governance
// (budget trip, deadline, overload rejection) and renders the degradation
// reason.
func governedFailure(err error) (string, bool) {
	var re *budget.ResourceError
	if errors.As(err, &re) {
		return "degraded: evaluation aborted: " + re.Error(), true
	}
	var oe *xcql.OverloadError
	if errors.As(err, &oe) {
		return "degraded: evaluation rejected: " + oe.Error(), true
	}
	return "", false
}

// InvalidateAll degrades every registration (transport gap, durable-
// bridge hole): each one reseeds and re-emits on its next arrival.
func (r *Registry) InvalidateAll(reason string) {
	r.mu.Lock()
	regs := make([]*Registration, 0, len(r.regs))
	for _, reg := range r.regs {
		regs = append(regs, reg)
	}
	r.mu.Unlock()
	for _, reg := range regs {
		reg.Invalidate("degraded: " + reason)
	}
}

// Stats snapshots the registry's process-level counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Registrations:     len(r.regs),
		Groups:            len(r.groups),
		Applies:           r.applies,
		SharedEvals:       r.sharedEvals,
		SharedSaved:       r.sharedSaved,
		Fanout:            r.fanout,
		Overloads:         r.overloads,
		BackpressureDrops: r.drops,
		Reseeds:           r.reseeds,
	}
}

// Groups snapshots every live sharing group, sorted by key.
func (r *Registry) Groups() []GroupStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GroupStats, 0, len(r.groups))
	for _, g := range r.groups {
		shared := 0
		for _, n := range g.sigRef {
			if n > 1 {
				shared++
			}
		}
		out = append(out, GroupStats{
			Key:         g.scope,
			Members:     len(g.members),
			SharedUnits: shared,
			SharedEvals: g.sharedEvals,
			SharedSaved: g.sharedSaved,
			Fanout:      g.fanout,
			Stats:       g.stats,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Registrations snapshots every live registration's counters, sorted by
// id.
func (r *Registry) Registrations() []RegStats {
	r.mu.Lock()
	regs := make([]*Registration, 0, len(r.regs))
	for _, reg := range r.regs {
		regs = append(regs, reg)
	}
	r.mu.Unlock()
	sort.Slice(regs, func(i, j int) bool { return regs[i].id < regs[j].id })
	out := make([]RegStats, 0, len(regs))
	for _, reg := range regs {
		out = append(out, reg.Stats())
	}
	return out
}

// mergeStats accumulates src's cost counters into dst (wall times are
// left alone — the group latency histogram covers time).
func mergeStats(dst, src *obs.EvalStats) {
	dst.FillersScanned += src.FillersScanned
	dst.HolesResolved += src.HolesResolved
	dst.TSIDLookups += src.TSIDLookups
	dst.TSIDIndexHits += src.TSIDIndexHits
	dst.TSIDIndexMisses += src.TSIDIndexMisses
	dst.BytesMaterialized += src.BytesMaterialized
	dst.NodesConstructed += src.NodesConstructed
	dst.Steps += src.Steps
	dst.Items += src.Items
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.HandlerInvocations += src.HandlerInvocations
	dst.BufferedItems += src.BufferedItems
	dst.SharedUnitHits += src.SharedUnitHits
	dst.SharedUnitMisses += src.SharedUnitMisses
	if src.BufferHWMBytes > dst.BufferHWMBytes {
		dst.BufferHWMBytes = src.BufferHWMBytes
	}
}
