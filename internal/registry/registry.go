// Package registry is the multi-tenant standing-query layer: one
// process-wide registry accepts many compiled XCQL registrations, groups
// the identical ones — one plan over the same stores under the same
// limits — and advances each group's one incremental engine
// (internal/inc) once per arriving fragment instead of once per query,
// fanning the delta out to every member.
//
// This is the one implementation of a standing query: every standing
// query is a registration, which owns the degrade/re-emit protocol and the
// delivery accounting, its engine the previous-result memory. A caller
// wanting one standing query of its own makes a registry of one. Every
// registration's observable output — its per-arrival delta stream and its
// standing result — is byte-identical to re-evaluating the query from scratch at every arrival
// and diffing consecutive results (the registry-equivalence harness pins
// this against an oracle that does exactly that). Sharing changes cost,
// never results.
//
// Sharing is scoped for soundness: a group key is the identity of the
// stores the plan reads, a fingerprint of the registration's effective
// limits and the plan (mode and canonical rendering), so members share an
// advance only where each would have made the same one alone: the same
// reads of the same store state at the same instant under the same budget,
// tripping or succeeding together. Registrations of different plans share
// nothing, whatever units their decompositions have in common.
// What surrounds a delivery is owned by what outlives the arrival, and
// reset rather than rebuilt: the group owns the engine and the stats its
// advance counts into (a member's Query.LastStats is a copy), and the
// serial an engine diffs an item by travels with the delta
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
	"hash/fnv"
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
	// evalMu serializes arrivals (Apply/Evaluate): a group's advance stats
	// are scratch for the arrival in progress, so two arrivals must not
	// interleave.
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
	engines := make([]*inc.Engine, 0, len(r.groups))
	for _, g := range r.groups {
		engines = append(engines, g.eng)
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

// group is one sharing scope: every registration of one plan reading the
// same stores under the same limits. Its members advance ONE engine per
// arrival and each take the delta, so a member's cost is a delivery, not an
// evaluation. The group, its engine with it, lives while it has a member.
type group struct {
	key   string
	scope string // the key's readable part: stream names and limits
	// mode and digest name the plan: its mode and a digest of its
	// canonical rendering (planDigest).
	mode, digest string
	// members is sorted by id and, like Registry.order, replaced where
	// membership changes and never written in place.
	members []*Registration
	// eng is the engine every member advances and reads, under lim.
	eng *inc.Engine
	lim xcql.Limits
	// advance is what the engine's advance for the arrival in progress
	// counts into, named plan; every member records a copy as its
	// LastStats. Touched under evalMu only.
	plan    string
	advance obs.EvalStats

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
	g    *group
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
	// (the members of a group each report the group's buffers).
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
	// SharedEvals counts the unit evaluations the groups' advances ran:
	// their HandlerInvocations.
	SharedEvals int64
	// SharedSaved counts the members served by another member's advance:
	// a group of K members saves K-1 advances per arrival.
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
	// read and, when set, their limits. Groups of different plans over
	// one scope render the same Key, and differ in Mode or Plan.
	Key string
	// Mode is the plan's mode ("QaC+"), and Plan a short digest of the
	// plan's canonical rendering, the one the group is keyed by.
	Mode string
	Plan string
	// Members is the live registration count.
	Members int
	// SharedEvals / SharedSaved / Fanout mirror the registry-level
	// counters, scoped to this group.
	SharedEvals int64
	SharedSaved int64
	Fanout      int64
	// Stats accumulates the group's evaluation cost counters across
	// arrivals: with K members, FillersScanned grows like one query's
	// cost, not K of them.
	Stats obs.EvalStats
}

// Register adds a compiled standing query. The registration is grouped
// with every earlier registration of the same plan reading the same stores
// under the same limits and starts receiving a Result per subsequent
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
		latency: obs.NewHistogram(),
	}
	if opts.OnResult == nil {
		buf := opts.Buffer
		if buf <= 0 {
			buf = DefaultBuffer
		}
		reg.ch = make(chan Result, buf)
	}
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
			key:     key,
			scope:   scope,
			mode:    q.Mode.String(),
			digest:  planDigest(q),
			eng:     inc.New(q),
			lim:     lim,
			plan:    q.Mode.String() + "/inc",
			latency: obs.NewHistogram(),
		}
		g.eng.SetFlightRecorder(r.tracer)
		r.groups[key] = g
		at := sort.Search(len(r.order), func(i int) bool { return r.order[i].key > key })
		r.order = slices.Insert(slices.Clone(r.order), at, g)
	} else {
		// join the group's live engine: this member's first delivery
		// re-emits the standing result (exactly what a fresh independent
		// query's first evaluation produces), and from then on it consumes
		// the group's advance.
		reg.needReseed = true
	}
	reg.g = g
	// ids only grow, so the newest member sorts last
	g.members = append(slices.Clip(g.members), reg)
	r.regs[reg.id] = reg
	return reg, nil
}

// groupKey derives a registration's sharing scope: the identity of every
// store the plan reads (sharing across different stores would be unsound),
// the effective limits fingerprint (sharing across different budgets would
// change which registrations trip) and the plan, mode included (a scan
// plan charges a budget step per hole read where QaC+'s index read charges
// none). scope is the readable part.
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
	return scope + "\x00" + strings.Join(stores, ",") + "\x00" + q.Mode.String() + "\x00" + q.Plan.String(), scope
}

// planDigest is a short digest of q's canonical rendering, the plan text
// groupKey keys a group by: eight hex digits of its FNV-1a hash.
func planDigest(q *xcql.Query) string {
	h := fnv.New32a()
	h.Write([]byte(q.Plan.String()))
	return fmt.Sprintf("%08x", h.Sum32())
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
func (reg *Registration) ItemsSnapshot() xq.Sequence { return reg.g.eng.ItemsSnapshot() }

// Strategy describes how the engine decomposed the plan (see
// inc.Engine.Strategy).
func (reg *Registration) Strategy() string { return reg.g.eng.Strategy() }

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
		Strategy:       reg.g.eng.Strategy(),
		Evaluations:    reg.evals,
		Dropped:        reg.dropped,
		Degraded:       reg.degraded,
		BufferBytes:    reg.g.eng.BufferedBytes(),
		BufferHWMBytes: reg.g.eng.BufferHWMBytes(),
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
// group advances its engine once and fans the per-registration deltas
// out. A nil fragment is a pure re-evaluation (clock advance).
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
// arrival's coordinates, the group's one advance — made by the first member
// to be served — and what the group's counters gain from it.
type groupPass struct {
	g   *group
	f   *fragment.Fragment
	at  time.Time
	rec *obs.FlightRecorder
	ptc obs.TraceContext // the "registry.eval" span member fan-outs hang off
	tid uint64

	// advanced says the engine has advanced for this arrival: delta (with
	// serials, its items' serialized forms, nil in count mode) or err is
	// what the advance produced.
	advanced bool
	delta    xq.Sequence
	serials  []string
	err      error

	delivered int64
	reseeds   int64
}

// applyGroup evaluates one sharing group for one arrival.
func (r *Registry) applyGroup(g *group, f *fragment.Fragment, at time.Time) {
	start := time.Now()
	r.mu.Lock()
	gp := groupPass{g: g, f: f, at: at, rec: r.tracer}
	members := g.members // by id
	r.mu.Unlock()

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
	for _, reg := range members {
		reg.apply(&gp)
	}
	g.latency.ObserveExemplar(time.Since(start), gp.tid)

	var evals, saved int64
	if gp.advanced {
		evals, saved = g.advance.HandlerInvocations, int64(len(members)-1)
	}
	if gsp != nil {
		gsp.SetDetail(fmt.Sprintf("group=%s plan=%s/%s members=%d evals=%d saved=%d", g.scope, g.mode, g.digest, len(members), evals, saved))
	}
	gsp.End()
	r.mu.Lock()
	g.sharedEvals += evals
	g.sharedSaved += saved
	g.fanout += gp.delivered
	if gp.advanced {
		mergeStats(&g.stats, &g.advance)
	}
	r.sharedEvals += evals
	r.sharedSaved += saved
	r.fanout += gp.delivered
	r.reseeds += gp.reseeds
	r.mu.Unlock()
}

// apply is one member's share of an arrival: take (or, as the first
// member served, make) the group's advance, fold it into the standing
// state, and deliver what that yields.
func (reg *Registration) apply(gp *groupPass) {
	start := time.Now()
	fsp := gp.rec.Start(gp.ptc, "fanout").SetReg(reg.id)
	defer fsp.End()
	if !gp.advanced {
		gp.evaluate()
	}
	// every member publishes the advance's cost profile as its own
	// LastStats (an EXPLAIN on any member shows what this arrival cost the
	// group, not zero)
	reg.q.RecordStats(&gp.g.advance)
	res, outcome := reg.settle(gp)
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

// evaluate makes the group's one advance for this arrival: its engine's
// Apply under the group's limits, counted into the group's advance stats.
func (gp *groupPass) evaluate() {
	g := gp.g
	g.advance = obs.EvalStats{Plan: g.plan}
	gp.delta, gp.serials, gp.err = g.eng.Apply(gp.f, gp.at, g.lim, &g.advance)
	gp.advanced = true
}

// settle is the one standing-state transition: it folds the group's
// advance into the registration and returns the delivery it yields,
// plus what to call the outcome where it is not a plain delta
// ("governed", "error", "reseed"). A governed failure (budget, deadline,
// admission) is part of normal operation: the registration is invalidated
// and the delivery carries the reason instead of a delta. Any other error
// is delivered as Result.Err and changes nothing — in particular a
// pending re-emission stays pending. Otherwise the delta is the engine's,
// or, when a re-emission is pending, the whole standing result.
func (reg *Registration) settle(gp *groupPass) (Result, string) {
	if gp.err != nil {
		reason, governed := governedFailure(gp.err)
		if !governed {
			return Result{Err: gp.err}, "error"
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
		// them: the group's other members are owed nothing but this
		// arrival's delta
		res.Delta, res.Serials = reg.g.eng.StandingDelta()
		outcome = "reseed"
		gp.reseeds++
	} else {
		res.Delta, res.Serials = gp.delta, gp.serials
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
	out := make([]GroupStats, 0, len(r.order))
	for _, g := range r.order {
		out = append(out, GroupStats{
			Key:         g.scope,
			Mode:        g.mode,
			Plan:        g.digest,
			Members:     len(g.members),
			SharedEvals: g.sharedEvals,
			SharedSaved: g.sharedSaved,
			Fanout:      g.fanout,
			Stats:       g.stats,
		})
	}
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
	dst.HandlerInvocations += src.HandlerInvocations
	dst.BufferedItems += src.BufferedItems
	if src.BufferHWMBytes > dst.BufferHWMBytes {
		dst.BufferHWMBytes = src.BufferHWMBytes
	}
}
