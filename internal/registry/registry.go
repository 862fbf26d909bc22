// Package registry is the multi-tenant standing-query layer: one
// process-wide registry accepts many compiled XCQL registrations,
// groups them by the tsid access paths their plans touch (what
// Query.Explain already computes), and evaluates each shared path once
// per arriving fragment instead of once per query. Within a group,
// full-mode registrations with identical plans share one evaluation per
// arrival, and incremental registrations share individual partial-match
// unit evaluations through an inc.SharedPass — the registry is the
// layer that dedupes PR 6's per-tag/per-filler units *across* queries.
//
// This is the one implementation of a standing query: a registration
// owns the previous-result memory, the degrade/re-emit protocol and the
// buffer accounting, and stream.ContinuousQuery is a registry holding
// exactly one of them. Every registration's observable output — its
// per-arrival delta stream and its standing result — is byte-identical to
// re-evaluating the query from scratch at every arrival and diffing
// consecutive results (the registry-equivalence harness pins this
// against an oracle that does exactly that). Sharing changes cost, never
// results.
//
// Sharing is scoped for soundness: a group key combines the access-path
// signature with the identity of the stores the plan reads and a
// fingerprint of the registration's effective limits, so two queries
// share work only when their evaluations are guaranteed identical
// (same store state, same instant, same budgets). A group's SharedPass is
// emptied before each arrival; nothing memoized outlives the arrival, so
// there is no cross-arrival invalidation protocol to get wrong.
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
	"context"
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
	// Items is the full result sequence at that instant — full-mode
	// registrations only: incremental deliveries leave it nil, so that
	// per-arrival cost stays proportional to the delta (use
	// Registration.ItemsSnapshot), and so do degraded emissions after a
	// governed failure.
	Items xq.Sequence
	// Delta contains the items absent (by serialized form) from the
	// registration's previous result, in result order. After an
	// invalidation the whole standing result re-emits here.
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
	// Incremental selects delta evaluation through internal/inc (per
	// arrival cost proportional to the dirty state) instead of full
	// re-evaluation per arrival.
	Incremental bool
	// Limits bounds each evaluation of this registration. The zero
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
// registration's incremental engine (current and future). nil detaches.
func (r *Registry) SetFlightRecorder(rec *obs.FlightRecorder) {
	r.mu.Lock()
	r.tracer = rec
	engines := make([]*inc.Engine, 0, len(r.regs))
	for _, reg := range r.regs {
		if reg.eng != nil {
			engines = append(engines, reg.eng)
		}
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

// group is one sharing scope: every registration whose plan touches the
// same access paths over the same stores under the same limits.
type group struct {
	key     string
	pathSig string
	// members is sorted by id and, like Registry.order, replaced where
	// membership changes and never written in place.
	members []*Registration
	// sigRef refcounts incremental unit signatures across members: a
	// signature with refcount K is evaluated once per arrival and
	// shared K ways.
	sigRef map[string]int
	// engShares maps incremental plan identities to a single shared
	// inc.Engine: identical incremental registrations advance ONE
	// engine per arrival and fan the delta out, so per-member cost is a
	// delivery, not an evaluation. The engine lives while any member
	// holds it (refcount) and dies with the last Close.
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
	// planKey is the sharing identity (evaluation kind + mode + canonical
	// plan): members of a group with the same key share one evaluation per
	// arrival — one full evaluation, or one advance of one engine.
	planKey string
	// share holds the incremental engine, possibly shared with the group's
	// other members of the same planKey, and eng is that engine; nil in
	// full mode.
	share *engShare
	eng   *inc.Engine
	sigs  []string

	mu        sync.Mutex
	seen      map[string]bool // full mode: previous result's serials
	lastItems xq.Sequence     // full mode: previous result (standing snapshot)
	// bufBytes / bufHWM account the full-mode standing state (seen's
	// serialized bytes) and its high-water mark; an incremental
	// registration reads its engine's counters instead.
	bufBytes int64
	bufHWM   int64
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
	ID          int64
	Group       string
	Incremental bool
	Evaluations int64
	Dropped     int64
	Degraded    string
	// BufferBytes is the standing state the registration holds between
	// arrivals, in serialized bytes: the previous result's serial set in
	// full mode, the engine's partial-match buffers in incremental mode
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
	// SharedEvals counts evaluations actually performed: incremental
	// unit misses plus one per full-mode shared plan per arrival.
	SharedEvals int64
	// SharedSaved counts evaluations sharing made unnecessary:
	// incremental unit hits plus the extra members a full-mode shared
	// evaluation served.
	SharedSaved int64
	// Fanout counts results delivered to registrations.
	Fanout int64
	// Overloads counts Register rejections by admission control.
	Overloads int64
	// BackpressureDrops counts deliveries dropped on full subscriber
	// channels (each one invalidates its registration).
	BackpressureDrops int64
	// Reseeds counts invalidation-triggered full rebuilds.
	Reseeds int64
}

// GroupStats is a snapshot of one sharing group.
type GroupStats struct {
	// Key is the group's access-path signature (human-readable part of
	// the sharing scope).
	Key string
	// Members is the live registration count.
	Members int
	// SharedUnits counts incremental unit signatures held by more than
	// one member — the units evaluated once and fanned out.
	SharedUnits int
	// SharedEvals / SharedSaved / Fanout mirror the registry-level
	// counters, scoped to this group.
	SharedEvals int64
	SharedSaved int64
	Fanout      int64
	// Stats accumulates the group's evaluation cost counters across
	// arrivals: with K members sharing a path, FillersScanned grows
	// like one query's cost, not K of them.
	Stats obs.EvalStats
}

// Register adds a compiled standing query. The registration is grouped
// with every earlier registration sharing its access paths (same
// stores, same limits) and starts receiving a Result per subsequent
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
	kind := "full"
	if opts.Incremental {
		kind = "inc"
		reg.eng = inc.New(q)
		reg.sigs = reg.eng.UnitSignatures()
	}
	reg.planKey = kind + "\x00" + q.Mode.String() + "\x00" + q.Plan.String()
	key, pathSig := groupKey(q, lim)

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
			pathSig:   pathSig,
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
	if reg.eng != nil {
		if share := g.engShares[reg.planKey]; share != nil {
			// adopt the share's live engine: this member's first
			// delivery re-emits the standing result (exactly what a
			// fresh independent query's first evaluation produces), and
			// from then on it consumes the shared advance.
			reg.share, reg.eng = share, share.eng
			share.refs++
			reg.needReseed = true
		} else {
			reg.share = &engShare{eng: reg.eng, refs: 1, plan: q.Mode.String() + "+inc"}
			g.engShares[reg.planKey] = reg.share
		}
		reg.eng.SetFlightRecorder(r.tracer)
	}
	r.regs[reg.id] = reg
	return reg, nil
}

// engShare is one refcounted shared incremental engine: every live
// registration with the same plan identity in the group advances and
// reads the same engine.
type engShare struct {
	eng  *inc.Engine
	refs int
	// stats is what the engine's advance for the arrival in progress counts
	// into, named plan; every member records a copy as its LastStats.
	// Touched under evalMu only.
	plan  string
	stats obs.EvalStats
}

// groupKey derives a registration's sharing scope: the sorted access-
// path signature from EXPLAIN, the identity of every store the plan
// reads (sharing across different stores would be unsound), and the
// effective limits fingerprint (sharing across different budgets would
// change which registrations trip).
func groupKey(q *xcql.Query, lim xcql.Limits) (key, pathSig string) {
	ex := q.Explain()
	paths := make([]string, 0, len(ex.Targets))
	for _, t := range ex.Targets {
		p := t.Op + "(" + t.Stream
		if t.TSID > 0 {
			p += fmt.Sprintf(":%d", t.TSID)
		}
		p += ")"
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pathSig = strings.Join(dedupeSorted(paths), " ")
	if pathSig == "" {
		pathSig = "(no store access)"
	}
	stores := make([]string, 0, len(ex.Streams))
	for _, name := range ex.Streams {
		stores = append(stores, fmt.Sprintf("%s=%p", name, q.StreamStore(name)))
	}
	key = pathSig + "\x00" + strings.Join(stores, ",") + "\x00" + fmt.Sprintf("%+v", lim)
	return key, pathSig
}

func dedupeSorted(ss []string) []string {
	out := ss[:0]
	for i, s := range ss {
		if i == 0 || s != ss[i-1] {
			out = append(out, s)
		}
	}
	return out
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
// last applied instant: the incremental engine's buffers, or the last
// full-mode evaluation's sequence. The items are shared with the
// engine; callers must not mutate them.
func (reg *Registration) ItemsSnapshot() xq.Sequence {
	if reg.eng != nil {
		return reg.eng.ItemsSnapshot()
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	return reg.lastItems
}

// Strategy describes how the incremental engine decomposed the plan (see
// inc.Engine.Strategy); empty in full mode.
func (reg *Registration) Strategy() string {
	if reg.eng == nil {
		return ""
	}
	return reg.eng.Strategy()
}

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
	reg.seen, reg.bufBytes = nil, 0
	reg.needReseed = true
}

// Stats snapshots the registration's counters.
func (reg *Registration) Stats() RegStats {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	st := RegStats{
		ID:             reg.id,
		Group:          reg.g.pathSig,
		Incremental:    reg.eng != nil,
		Evaluations:    reg.evals,
		Dropped:        reg.dropped,
		Degraded:       reg.degraded,
		BufferBytes:    reg.bufBytes,
		BufferHWMBytes: reg.bufHWM,
	}
	if reg.eng != nil {
		st.BufferBytes, st.BufferHWMBytes = reg.eng.BufferedBytes(), reg.eng.BufferHWMBytes()
	}
	return st
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
// queries read) at the registry clock's current instant: each shared
// group evaluates its shared paths once and fans the per-registration
// deltas out. A nil fragment is a pure re-evaluation (clock advance).
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
	fullEvals int64
	delivered int64
	reseeds   int64
}

// sharedEval is one evaluation shared by every member of a group with
// the same planKey: the full-mode result sequence, or the delta one
// advance of the shared engine produced — or the error that replaced it.
// The first member pays for it; the rest consume it.
type sharedEval struct {
	seq xq.Sequence
	// serials are the serialized forms of seq's items: what a full-mode
	// member diffs by, and an engine delta's Result.Serials (nil in count
	// mode).
	serials []string
	err     error
	// stats is an engine advance's cost profile, in the share's scratch;
	// nil for a full evaluation, whose query records its own.
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

	evals := gp.units.Misses() + gp.fullEvals
	saved := gp.units.Hits()
	for _, ev := range shared {
		saved += int64(ev.consumers - 1)
	}
	if gsp != nil {
		gsp.SetDetail(fmt.Sprintf("group=%s members=%d evals=%d saved=%d", g.pathSig, len(members), evals, saved))
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
	if ev.stats != nil {
		// every member publishes the advance's cost profile as its own
		// LastStats (an EXPLAIN on any member shows what this arrival cost
		// the share, not zero)
		reg.q.RecordStats(ev.stats)
	}
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
			outcome = fmt.Sprintf("items=%d delta=%d", len(res.Items), len(res.Delta))
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
// arrival: one full evaluation, or one advance of the (possibly shared)
// engine, whose unit evaluations are further deduped across DIFFERENT
// plans through the group's shared pass.
func (reg *Registration) evaluate(gp *groupPass) sharedEval {
	if reg.eng == nil {
		gp.fullEvals++
		seq, err := reg.q.EvalLimits(context.Background(), gp.at, reg.lim)
		stats := reg.q.LastStats()
		mergeStats(&gp.stats, &stats)
		return sharedEval{seq: seq, serials: inc.ItemSerials(seq), err: err}
	}
	stats := &reg.share.stats
	*stats = obs.EvalStats{Plan: reg.share.plan}
	seq, serials, err := reg.eng.Apply(gp.f, gp.at, reg.lim, stats, gp.units)
	mergeStats(&gp.stats, stats)
	return sharedEval{seq: seq, serials: serials, err: err, stats: stats}
}

// settle is the one standing-state transition: it folds a shared
// evaluation into the registration and returns the delivery it yields,
// plus what to call the outcome where it is not a plain delta
// ("governed", "error", "reseed"). A governed failure (budget, deadline,
// admission) is part of normal operation: the registration is invalidated
// and the delivery carries the reason instead of a delta. Any other error
// is delivered as Result.Err and changes nothing — in particular a
// pending re-emission stays pending. Otherwise the delta is the items
// absent from the previous result (full mode: diffed here, generation by
// generation, so the serial set is bounded by the standing result and not
// by the output history; incremental: the engine's delta), or, when a
// re-emission is pending, the whole standing result.
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
	switch {
	case reg.eng == nil:
		next := make(map[string]bool, len(ev.seq))
		res.Items, reg.bufBytes = ev.seq, 0
		for i, it := range ev.seq {
			key := ev.serials[i]
			if next[key] {
				continue
			}
			next[key] = true
			reg.bufBytes += int64(len(key))
			if !reg.seen[key] {
				res.Delta, res.Serials = append(res.Delta, it), append(res.Serials, key)
			}
		}
		reg.seen, reg.lastItems = next, ev.seq
		reg.bufHWM = max(reg.bufHWM, reg.bufBytes)
	case reg.needReseed:
		// re-emit from the engine's standing buffers rather than rebuild
		// them: the engine may be shared, and its other members are owed
		// nothing but this arrival's delta
		res.Delta, res.Serials = reg.eng.StandingDelta()
		outcome = "reseed"
		gp.reseeds++
	default:
		res.Delta, res.Serials = ev.seq, ev.serials
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
			Key:         g.pathSig,
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

// mergeStats accumulates src's cost counters into dst (wall times and
// distribution fields are left alone — the group latency histogram
// covers time).
func mergeStats(dst, src *obs.EvalStats) {
	dst.FillersScanned += src.FillersScanned
	dst.HolesResolved += src.HolesResolved
	dst.TSIDLookups += src.TSIDLookups
	dst.TSIDIndexHits += src.TSIDIndexHits
	dst.TSIDIndexMisses += src.TSIDIndexMisses
	dst.LabelRangeLookups += src.LabelRangeLookups
	dst.LabelRangeHits += src.LabelRangeHits
	dst.LabelRangeMisses += src.LabelRangeMisses
	dst.BytesMaterialized += src.BytesMaterialized
	dst.NodesConstructed += src.NodesConstructed
	dst.Steps += src.Steps
	dst.Items += src.Items
	dst.CacheHits += src.CacheHits
	dst.CacheMisses += src.CacheMisses
	dst.ParallelTasks += src.ParallelTasks
	dst.HandlerInvocations += src.HandlerInvocations
	dst.BufferedItems += src.BufferedItems
	dst.SharedUnitHits += src.SharedUnitHits
	dst.SharedUnitMisses += src.SharedUnitMisses
	if src.BufferHWMBytes > dst.BufferHWMBytes {
		dst.BufferHWMBytes = src.BufferHWMBytes
	}
}
