// Package obs is the engine's observability layer: per-evaluation cost
// counters (EvalStats), a lightweight span-trace API (TraceSink), and a
// process-level metrics registry (Registry) with a Prometheus text
// exposition.
//
// The paper's evaluation (§7, Figure 4) rests on a mechanism claim — the
// plans differ in how many fillers they touch, how many holes they
// resolve and how much of the document they materialize — and EvalStats
// makes those quantities first-class observables instead of inferring
// them from wall time. The counters map onto the paper like this:
//
//	FillersScanned    filler versions examined by store lookups; under
//	                  the scan cost model every get_fillers pass examines
//	                  the whole fragment log, which is exactly the access
//	                  cost Figure 4 measures
//	HolesResolved     get_fillers resolutions (the paper's hole/filler
//	                  reconciliations)
//	TSIDIndexHits     filler versions fetched straight from the tsid
//	                  index — the QaC+ shortcut; zero under CaQ and QaC
//	BytesMaterialized approximate bytes of XML the evaluation's results
//	                  and views span — their logical size, charged to the
//	                  byte budget whether a subtree was built or is
//	                  shared with the store (CaQ's whole-view
//	                  construction dominates here)
//	NodesConstructed  elements actually built: one top element per
//	                  filler version a read returned stamped, the spine
//	                  reconstruction and hole filling rebuild above a
//	                  hole, and constructors
//
// A nil *EvalStats is valid and means "not collecting": every method is
// nil-receiver safe so instrumented call sites need no guards, mirroring
// the budget package. An EvalStats is owned by one evaluation. The Add*
// counter methods are atomic all the same; the plain fields (Plan, phase
// times) are written only by the owning goroutine. Snapshots taken after
// the evaluation are plain values.
package obs

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// EvalStats are the cost counters of one query evaluation. The engine
// populates them on every Eval/EvalContext call; read them back with
// Query.LastStats or Engine.EvalContextStats.
type EvalStats struct {
	// Plan is the physical plan that ran ("CaQ", "QaC", "QaC+"). A standing
	// query's advance adds "/inc" ("QaC+/inc"): the incremental engine ran
	// the plan's units.
	Plan string

	// FillersScanned counts filler versions examined by store lookups.
	// On a scan store every lookup pass examines the whole fragment log
	// (the paper's predicate-scan cost model); on an indexed store only
	// the returned versions are examined.
	FillersScanned int64
	// HolesResolved counts hole-id resolutions (get_fillers calls,
	// projection-time hole crossings, result materialization).
	HolesResolved int64
	// TSIDLookups counts tsid-index fetches issued (QaC+ descendant
	// steps); TSIDIndexHits is the filler versions they returned and
	// TSIDIndexMisses the lookups that found none.
	TSIDLookups     int64
	TSIDIndexHits   int64
	TSIDIndexMisses int64
	// Deprecated: LabelRangeLookups is always zero. It counted the reads of
	// a fourth plan, QaC++, whose reads were QaC+'s, and stays only until
	// the end-to-end harness under bench/ stops reading it (ROADMAP item
	// 1 (a)).
	LabelRangeLookups int64
	// BytesMaterialized approximates the bytes of XML materialized during
	// the evaluation: temporal views, resolved filler versions,
	// constructed elements — by logical size, shared subtrees included.
	// Mirrors the byte budget's accounting.
	BytesMaterialized int64
	// NodesConstructed counts elements actually allocated: the annotated
	// top element of every filler version a store read returned stamped
	// (a read whose tops nothing in the query observes builds none: it
	// hands out the stored payloads), the elements
	// copy-on-write reconstruction and hole filling rebuilt, and element
	// constructors.
	// Subtrees shared with the store are not counted — compare with
	// BytesMaterialized to see how much of a result was shared.
	NodesConstructed int64
	// Steps and Items are the cooperative work units and sequence
	// cardinality charged to the evaluation's budget.
	Steps int64
	Items int64

	// HandlerInvocations counts the standing engine's unit runs: how many
	// partial-match units one fragment arrival actually touched. Zero for a
	// one-shot evaluation — the engine's headline counter (cost
	// proportional to affected output, not store size).
	HandlerInvocations int64
	// BufferedItems is the number of result items the incremental engine
	// holds in its partial-match buffers after the evaluation.
	BufferedItems int64
	// BufferHWMBytes is the high-water mark of the incremental (or
	// delta-state) buffer in serialized bytes — the memory bound the
	// continuous query's state machine promises.
	BufferHWMBytes int64

	// Per-phase wall times. Parse and Translate are compile-time and
	// copied from the owning query (zero for a query whose plan came from
	// the runtime's plan cache: it parsed and translated nothing); Exec
	// and Materialize are measured per evaluation; Total = Exec +
	// Materialize.
	ParseTime       time.Duration
	TranslateTime   time.Duration
	ExecTime        time.Duration
	MaterializeTime time.Duration
	TotalTime       time.Duration
}

// AccessCounts is what the store reads of part of an evaluation charged
// its counters, for a caller that memoizes that part and replays the
// charge instead of running it again.
type AccessCounts struct {
	Fillers, Holes, Nodes int64
}

// Access returns the access counters s holds.
func (s *EvalStats) Access() AccessCounts {
	return AccessCounts{s.FillersScanned, s.HolesResolved, s.NodesConstructed}
}

// Sub returns c less o.
func (c AccessCounts) Sub(o AccessCounts) AccessCounts {
	return AccessCounts{c.Fillers - o.Fillers, c.Holes - o.Holes, c.Nodes - o.Nodes}
}

// AddAccess adds access counters to s.
func (s *EvalStats) AddAccess(c AccessCounts) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.FillersScanned, c.Fillers)
	atomic.AddInt64(&s.HolesResolved, c.Holes)
	atomic.AddInt64(&s.NodesConstructed, c.Nodes)
}

// AddFillers records n filler versions examined by a store lookup.
func (s *EvalStats) AddFillers(n int) {
	if s != nil {
		atomic.AddInt64(&s.FillersScanned, int64(n))
	}
}

// AddHoles records n hole resolutions.
func (s *EvalStats) AddHoles(n int) {
	if s != nil {
		atomic.AddInt64(&s.HolesResolved, int64(n))
	}
}

// AddTSIDLookup records one tsid-index fetch that returned `fillers`
// versions.
func (s *EvalStats) AddTSIDLookup(fillers int) {
	if s == nil {
		return
	}
	atomic.AddInt64(&s.TSIDLookups, 1)
	if fillers > 0 {
		atomic.AddInt64(&s.TSIDIndexHits, int64(fillers))
	} else {
		atomic.AddInt64(&s.TSIDIndexMisses, 1)
	}
}

// AddNodes records n constructed elements.
func (s *EvalStats) AddNodes(n int) {
	if s != nil {
		atomic.AddInt64(&s.NodesConstructed, int64(n))
	}
}

// AddHandlerInvocations records n incremental handler runs.
func (s *EvalStats) AddHandlerInvocations(n int) {
	if s != nil {
		atomic.AddInt64(&s.HandlerInvocations, int64(n))
	}
}

// AddBufferedItems records n items held in incremental buffers.
func (s *EvalStats) AddBufferedItems(n int) {
	if s != nil {
		atomic.AddInt64(&s.BufferedItems, int64(n))
	}
}

// MaxBufferHWMBytes raises the buffer high-water mark to n if larger.
func (s *EvalStats) MaxBufferHWMBytes(n int64) {
	if s == nil {
		return
	}
	for {
		cur := atomic.LoadInt64(&s.BufferHWMBytes)
		if n <= cur || atomic.CompareAndSwapInt64(&s.BufferHWMBytes, cur, n) {
			return
		}
	}
}

// String renders the counters on one line, for logs and CLI output.
func (s *EvalStats) String() string {
	if s == nil {
		return "<no stats>"
	}
	line := fmt.Sprintf(
		"plan=%s fillers-scanned=%d holes-resolved=%d tsid-hits=%d tsid-misses=%d bytes=%d nodes=%d steps=%d items=%d exec=%v materialize=%v",
		s.Plan, s.FillersScanned, s.HolesResolved, s.TSIDIndexHits, s.TSIDIndexMisses,
		s.BytesMaterialized, s.NodesConstructed, s.Steps, s.Items,
		s.ExecTime.Round(time.Microsecond), s.MaterializeTime.Round(time.Microsecond))
	if s.HandlerInvocations > 0 || s.BufferedItems > 0 {
		line += fmt.Sprintf(" handlers=%d buffered-items=%d buffer-hwm-bytes=%d",
			s.HandlerInvocations, s.BufferedItems, s.BufferHWMBytes)
	}
	return line
}

// --- tracing ---------------------------------------------------------------

// TraceSink receives completed spans from the engine: one call per phase
// (parse, translate, compile, execute, materialize, eval) with its wall
// clock interval. Implementations must be safe for concurrent use; the
// engine calls them from whatever goroutine evaluates. Tracing is off by
// default (nil sink) and the disabled path performs no allocation.
type TraceSink interface {
	Span(name, detail string, start time.Time, d time.Duration)
}

// SpanRecord is one collected span.
type SpanRecord struct {
	Name   string
	Detail string
	Start  time.Time
	Dur    time.Duration
}

// DefaultCollectorCapacity is the span bound of a CollectorSink.
const DefaultCollectorCapacity = 4096

// CollectorSink accumulates spans in a bounded in-memory ring;
// cmd/xcqlrun -trace uses it to dump a query timeline after the run.
// When the ring is full the oldest span is overwritten and Dropped
// increments, so a long -trace run holds a window of the
// DefaultCollectorCapacity most recent spans instead of growing without
// bound. The zero value is ready to use.
type CollectorSink struct {
	mu      sync.Mutex
	spans   []SpanRecord // ring storage; write position is next once full
	next    int
	dropped int64
}

// Dropped returns the number of spans overwritten.
func (c *CollectorSink) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Span implements TraceSink.
func (c *CollectorSink) Span(name, detail string, start time.Time, d time.Duration) {
	c.mu.Lock()
	rec := SpanRecord{Name: name, Detail: detail, Start: start, Dur: d}
	if len(c.spans) < DefaultCollectorCapacity {
		c.spans = append(c.spans, rec)
	} else {
		c.spans[c.next] = rec
		c.next = (c.next + 1) % DefaultCollectorCapacity
		c.dropped++
	}
	c.mu.Unlock()
}

// orderedLocked reassembles the ring into completion order. Caller
// holds c.mu.
func (c *CollectorSink) orderedLocked() []SpanRecord {
	out := make([]SpanRecord, 0, len(c.spans))
	out = append(out, c.spans[c.next:]...)
	out = append(out, c.spans[:c.next]...)
	return out
}

// Spans returns the collected spans in completion order (the oldest
// retained span first when the ring has wrapped).
func (c *CollectorSink) Spans() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.orderedLocked()
}

// Reset drops the collected spans and zeroes the dropped counter.
func (c *CollectorSink) Reset() {
	c.mu.Lock()
	c.spans = nil
	c.next = 0
	c.dropped = 0
	c.mu.Unlock()
}

// Timeline renders the collected spans as an indented timeline with
// offsets relative to the earliest span start.
func (c *CollectorSink) Timeline() string {
	spans := c.Spans()
	if len(spans) == 0 {
		return "(no spans)"
	}
	epoch := spans[0].Start
	for _, sp := range spans {
		if sp.Start.Before(epoch) {
			epoch = sp.Start
		}
	}
	ordered := make([]SpanRecord, len(spans))
	copy(ordered, spans)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Start.Before(ordered[j].Start) })
	var b strings.Builder
	for _, sp := range ordered {
		fmt.Fprintf(&b, "%10s +%-12v %-12v %s\n",
			sp.Name, sp.Start.Sub(epoch).Round(time.Microsecond), sp.Dur.Round(time.Microsecond), sp.Detail)
	}
	return b.String()
}

// --- process-level metrics registry ----------------------------------------

// Counter is a monotonically increasing process-level counter. Safe for
// concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Registry is a named set of counters and gauges with a Prometheus
// text exposition. One process typically owns one registry and points
// the stream server/client metrics plus any engine counters at it; the
// registry is then exposed over HTTP (it implements http.Handler) or
// dumped with WritePrometheus.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]func() int64
	help     map[string]string // family help text, see Help/WritePrometheus
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]func() int64),
	}
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge registers a read-on-demand gauge under name, replacing any
// previous registration. The function is called at exposition time and
// must be safe for concurrent use.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Unregister removes the counter and/or gauge registered under name.
// Removing a name that was never registered is a no-op. A Counter
// obtained earlier keeps working but is no longer exposed; asking for
// the same name again creates a fresh counter starting at zero.
func (r *Registry) Unregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.counters, name)
	delete(r.gauges, name)
}

// Reset unregisters every metric, returning the registry to its empty
// state. Tests use this so metrics registered by one case never leak
// into the exposition of the next.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters = make(map[string]*Counter)
	r.gauges = make(map[string]func() int64)
	r.help = nil
}

// Each calls fn for every metric in name order. When a gauge and a
// counter share a name, the gauge shadows the counter: the name appears
// once and reports the gauge's value. This is deliberate — components
// first count locally and later replace the number with a live snapshot
// gauge under the same name without breaking dashboards — and
// WritePrometheus follows the same rule.
func (r *Registry) Each(fn func(name string, value int64)) {
	r.mu.Lock()
	names := make([]string, 0, len(r.counters)+len(r.gauges))
	vals := make(map[string]func() int64, len(r.counters)+len(r.gauges))
	for n, c := range r.counters {
		names = append(names, n)
		vals[n] = c.Value
	}
	for n, g := range r.gauges {
		if _, dup := vals[n]; !dup {
			names = append(names, n)
		}
		vals[n] = g // a gauge shadows a same-named counter
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, n := range names {
		fn(n, vals[n]())
	}
}

// ServeHTTP exposes the registry in the Prometheus text format, so a
// Registry can be mounted directly on an HTTP mux (e.g. next to
// /debug/pprof) and scraped cleanly.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = r.WritePrometheus(w)
}

// Default is the process-wide registry commands use unless they build
// their own.
var Default = NewRegistry()
