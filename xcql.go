// Package xcql is a data stream management system for historical XML
// data — a Go implementation of Bose & Fegaras, "Data Stream Management
// for Historical XML Data" (SIGMOD 2004).
//
// A stream is a finite XML document followed by a continuous stream of
// updates. Documents travel as Hole-Filler fragments: each fragment
// carries a unique filler id, the tag-structure id of its top element and
// a validTime; holes inside a fragment refer to child fragments, and
// re-sending a filler id creates a new version. Clients reassemble a
// virtual temporal view of the whole history — which is never
// materialized unless asked — and run XCQL: XQuery extended with interval
// projections e?[t1,t2], version projections e#[v1,v2], vtFrom/vtTo
// lifespan accessors and the constants start and now.
//
// Queries compile to one of the paper's three physical plans over the
// fragment store: CaQ (materialize, then query), QaC (query fragments
// directly, crossing holes on demand) and QaC+ (jump to the needed
// fragments via the tsid index). All three produce identical results;
// they differ — dramatically, see the benchmarks — in how much of the
// document they touch.
//
// Quick start:
//
//	engine := xcql.NewEngine()
//	store, _ := engine.AddDocumentStream("credit", structure, doc)
//	q, _ := engine.Compile(`for $a in stream("credit")//account
//	                        where sum($a/transaction?[now-PT1H,now]/amount) > 5000
//	                        return $a/customer`, xcql.QaCPlus)
//	res, _ := q.Eval(time.Now())
package xcql

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/registry"
	"xcql/internal/segstore"
	"xcql/internal/stream"
	"xcql/internal/tagstruct"
	"xcql/internal/temporal"
	ixcql "xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
	"xcql/internal/xtime"
)

// Re-exported types. The implementation lives in internal packages; these
// aliases are the supported surface.
type (
	// Mode selects the physical plan: CaQ, QaC or QaCPlus.
	Mode = ixcql.Mode
	// Query is a compiled XCQL query bound to an engine. Set Query.Limits
	// and evaluate with Query.EvalContext for governed execution.
	Query = ixcql.Query
	// Limits bounds one evaluation: MaxSteps, MaxDepth, MaxItems,
	// MaxBytes and a Timeout deadline. The zero value is unlimited except
	// recursion depth, which defaults to DefaultMaxDepth.
	Limits = ixcql.Limits
	// ResourceError reports which limit an evaluation tripped; it unwraps
	// to context.Canceled/DeadlineExceeded for cancellation trips.
	ResourceError = budget.ResourceError
	// EvalError is the engine boundary's structured failure: query text,
	// plan, and the underlying cause (a *ResourceError for limit trips, a
	// recovered panic with Stack set for evaluator bugs).
	EvalError = ixcql.EvalError
	// OverloadError is the admission-control rejection issued when the
	// engine already runs its maximum of concurrent evaluations.
	OverloadError = ixcql.OverloadError
	// TagStructure is the structural summary driving fragmentation and
	// translation (§4.1 of the paper).
	TagStructure = tagstruct.Structure
	// Tag is one node of a TagStructure.
	Tag = tagstruct.Tag
	// TagType is snapshot, temporal or event.
	TagType = tagstruct.TagType
	// Fragment is one filler on the wire.
	Fragment = fragment.Fragment
	// MissingPredecessorError is what decoding a delta frame — a
	// re-announcement carrying only what it adds to its predecessor —
	// returns where that predecessor is not at hand.
	MissingPredecessorError = fragment.MissingPredecessorError
	// Store is a client-side fragment repository.
	Store = fragment.Store
	// Fragmenter cuts documents into fragments along a TagStructure.
	Fragmenter = fragment.Fragmenter
	// Node is an XML tree node.
	Node = xmldom.Node
	// Sequence is a query result: an ordered sequence of items.
	Sequence = xq.Sequence
	// Item is one value of the data model (node, string, number, bool,
	// dateTime or duration).
	Item = xq.Item
	// Func is a user-defined query function.
	Func = xq.Func
	// EvalContext is the dynamic context passed to user functions.
	EvalContext = xq.Context
	// Server multicasts a fragment stream to registered clients. With a
	// durable log attached, Publish queues and one committer per server
	// writes each batch through with one fsync before delivering it;
	// Server.Sync waits for that, and Close drains the queue.
	Server = stream.Server
	// Client receives a fragment stream into a local store.
	Client = stream.Client
	// Gap is a run of sequence numbers a client failed to receive.
	Gap = stream.Gap
	// ClientStats is a client's one progress snapshot: watermarks, lag,
	// missing and lost fragments, delivery counters.
	ClientStats = stream.ClientStats
	// ServerStats is a server's one progress snapshot: watermarks, queue
	// depth, drops, the replay window.
	ServerStats = stream.ServerStats
	// EvalStats is the per-evaluation cost profile: fillers scanned,
	// holes resolved, tsid-index hits, bytes materialized, nodes
	// constructed and per-phase wall times. Query.LastStats returns it.
	EvalStats = obs.EvalStats
	// Explain describes a compiled query's physical plan: access paths,
	// predicted cost against current store contents, and the observed
	// counters of the last evaluation. Query.Explain returns it.
	Explain = ixcql.Explain
	// ExplainTarget is one store access path in an Explain.
	ExplainTarget = ixcql.ExplainTarget
	// Histogram is a fixed-bucket latency histogram with lock-free
	// recording and p50/p90/p99 estimation.
	Histogram = obs.Histogram
	// HistogramSnapshot is a point-in-time copy of a Histogram.
	HistogramSnapshot = obs.HistogramSnapshot
	// TraceSink receives phase spans (parse, translate, execute,
	// materialize, eval) when tracing is enabled via SetTraceSink.
	TraceSink = obs.TraceSink
	// SpanRecord is one captured trace span.
	SpanRecord = obs.SpanRecord
	// CollectorSink is a TraceSink that buffers spans in memory and can
	// render them as a timeline.
	CollectorSink = obs.CollectorSink
	// Registry is a process-level registry of named counters and gauges
	// with a Prometheus text exposition (it is an http.Handler).
	Registry = obs.Registry
	// Counter is a monotonically increasing atomic counter in a Registry.
	Counter = obs.Counter
	// TraceContext is a compact per-fragment trace identity (trace id +
	// causal parent span) that rides fragments across the wire and links
	// publish→fsync→eval→fanout→delivery into one span tree.
	TraceContext = obs.TraceContext
	// FlightRecorder is the bounded in-memory tracer: tail-sampled trace
	// ring with p99/flag retention, /v1/tracez JSON, and an e2e latency
	// histogram with per-bucket exemplars.
	FlightRecorder = obs.FlightRecorder
	// FlightRecorderOptions tune a FlightRecorder (ring capacity,
	// sampling rate, quiescence window).
	FlightRecorderOptions = obs.FlightRecorderOptions
	// TraceRecord is one finalized trace in the recorder's ring.
	TraceRecord = obs.TraceRecord
	// TraceSpan is one span inside a TraceRecord.
	TraceSpan = obs.TraceSpan
	// Span is a live span handle from FlightRecorder.Start; all methods
	// are safe on a nil receiver (tracing disabled).
	Span = obs.Span
	// TraceFilter selects traces from a FlightRecorder (stream, tsid,
	// registration id).
	TraceFilter = obs.TraceFilter
	// FlightStats is a snapshot of a FlightRecorder's retention counters.
	FlightStats = obs.FlightStats
	// DialOptions tune a client's reconnect/backoff behaviour.
	DialOptions = stream.DialOptions
	// ServeOptions tune the TCP serving side (buffers, fault injection).
	ServeOptions = stream.ServeOptions
	// FaultPlan configures deterministic transport-fault injection.
	FaultPlan = stream.FaultPlan
	// FaultStats counts the faults an injector has inflicted.
	FaultStats = stream.FaultStats
	// FaultInjector corrupts a fragment flow on purpose (tests, -chaos).
	FaultInjector = stream.FaultInjector
	// SegStore is the durable segment store: an append-only, checksummed
	// fragment log with crash recovery and snapshots, written a batch at a
	// time with one fsync each (AppendBatch; Append is a batch of one).
	// Servers write through to one (Server.AttachDurable) so reconnecting
	// clients can bootstrap past the in-memory replay window; standalone
	// hosts use it to survive restarts (see OpenSegStore).
	SegStore = segstore.Store
	// SegStoreOptions tune a SegStore: segment size, fsync policy,
	// automatic snapshot cadence.
	SegStoreOptions = segstore.Options
	// RecoveryReport says what opening a SegStore found: frames and
	// snapshots loaded, torn tails truncated, corrupt files quarantined,
	// and — when data was lost — an explicit Degraded reason.
	RecoveryReport = segstore.RecoveryReport
	// SegStoreStats is a snapshot of a SegStore's counters.
	SegStoreStats = segstore.Stats
	// DurableLog is the write-through/replay interface a Server uses for
	// durable bootstrap; *SegStore satisfies it.
	DurableLog = stream.DurableLog
	// QueryRegistry is the multi-tenant standing-query registry: it
	// groups registered queries by the stores they read and their limits
	// and evaluates each shared unit once per arriving fragment, fanning
	// per-registration deltas out. Engine.Registry returns the engine's registry.
	QueryRegistry = registry.Registry
	// QueryRegistration is one standing query's handle in a
	// QueryRegistry: consume results, inspect degradation, Close to
	// unregister.
	QueryRegistration = registry.Registration
	// RegistryOptions configures one registration (limits, delivery).
	RegistryOptions = registry.Options
	// RegistryResult is one delivery to a registration: the arrival's
	// delta, or a degradation/error.
	RegistryResult = registry.Result
	// RegistryStats is a snapshot of a QueryRegistry's sharing counters.
	RegistryStats = registry.Stats
	// RegistryGroupStats is a snapshot of one sharing group.
	RegistryGroupStats = registry.GroupStats
	// RegistrationStats is a snapshot of one registration's counters.
	RegistrationStats = registry.RegStats
	// QueryAPI is the HTTP + WebSocket front of a QueryRegistry:
	// register XCQL text over HTTP, stream JSON deltas over a
	// hand-rolled RFC 6455 WebSocket. It is an http.Handler.
	QueryAPI = registry.API
	// DateTime is a time point, possibly the symbolic start or now.
	DateTime = xtime.DateTime
	// Duration is an ISO-8601 duration (PnYnMnDTnHnMnS).
	Duration = xtime.Duration
	// Interval is a closed time interval.
	Interval = xtime.Interval
)

// Execution modes.
const (
	CaQ     = ixcql.CaQ
	QaC     = ixcql.QaC
	QaCPlus = ixcql.QaCPlus
	// Deprecated: QaCPlusPlus is QaCPlus. It named a fourth plan whose
	// reads were QaC+'s, and stays only until the end-to-end harness under
	// bench/ stops naming it (ROADMAP item 1 (a)).
	QaCPlusPlus = ixcql.QaCPlus
)

// Tag types.
const (
	Snapshot = tagstruct.Snapshot
	Temporal = tagstruct.Temporal
	Event    = tagstruct.Event
)

// Resource-limit kinds, reported in ResourceError.Limit.
const (
	LimitSteps    = budget.LimitSteps
	LimitDepth    = budget.LimitDepth
	LimitItems    = budget.LimitItems
	LimitBytes    = budget.LimitBytes
	LimitTimeout  = budget.LimitTimeout
	LimitCanceled = budget.LimitCanceled
)

// DefaultMaxDepth is the recursion-depth bound applied to user-declared
// functions when Limits.MaxDepth is unset: runaway self-recursion
// returns a depth ResourceError instead of crashing the process.
const DefaultMaxDepth = budget.DefaultMaxDepth

// ParseMode parses a plan name ("CaQ", "QaC", "QaC+"; "QaC++" is accepted
// as QaC+ for clients that still send it).
func ParseMode(s string) (Mode, error) { return ixcql.ParseMode(s) }

// Engine owns a set of named streams and compiles XCQL queries against
// them. It is safe for concurrent use.
type Engine struct {
	rt *ixcql.Runtime

	regOnce sync.Once
	reg     *registry.Registry
}

// NewEngine returns an empty engine.
func NewEngine() *Engine { return &Engine{rt: ixcql.NewRuntime()} }

// Registry returns the engine's standing-query registry (created on
// first use): register compiled queries with QueryRegistry.Register,
// feed arrivals with QueryRegistry.Apply (or Client.AttachRegistry), and
// each shared access path evaluates once per arrival regardless of how
// many registrations read it.
func (e *Engine) Registry() *QueryRegistry {
	e.regOnce.Do(func() { e.reg = registry.New(nil) })
	return e.reg
}

// ServeQueryAPI returns an http.Handler exposing the engine's registry
// as a query-and-subscribe service: POST /v1/query registers XCQL text,
// GET /v1/subscribe streams JSON deltas over WebSocket, POST /v1/eval
// runs one-shot queries, GET /v1/registryz reports sharing stats.
func (e *Engine) ServeQueryAPI() *QueryAPI {
	return registry.NewAPI(e.Registry(), e.Compile)
}

// Runtime exposes the underlying compiler runtime for advanced use.
func (e *Engine) Runtime() *ixcql.Runtime { return e.rt }

// RegisterStore makes an existing fragment store queryable as
// stream(name).
func (e *Engine) RegisterStore(name string, st *Store) { e.rt.RegisterStream(name, st) }

// Store returns the store registered under name, or nil.
func (e *Engine) Store(name string) *Store { return e.rt.Store(name) }

// AddDocumentStream fragments doc along the structure, loads the
// fragments into a fresh store and registers it as stream(name). Sibling
// elements of a temporal tag carrying vtFrom annotations are treated as
// versions of one element, so a materialized temporal view round-trips.
func (e *Engine) AddDocumentStream(name string, structure *TagStructure, doc *Node) (*Store, error) {
	fr := fragment.NewFragmenter(structure)
	fr.CoalesceVersions = true
	frags, err := fr.Fragment(doc)
	if err != nil {
		return nil, err
	}
	st := fragment.NewStore(structure)
	if err := st.AddAll(frags); err != nil {
		return nil, err
	}
	e.rt.RegisterStream(name, st)
	return st, nil
}

// AddEmptyStream registers an empty store for a stream whose fragments
// will arrive later (e.g. from a network client).
func (e *Engine) AddEmptyStream(name string, structure *TagStructure) *Store {
	st := fragment.NewStore(structure)
	e.rt.RegisterStream(name, st)
	return st
}

// AttachClient registers a stream client's store under the client's
// stream name.
func (e *Engine) AttachClient(c *Client) { e.rt.RegisterStream(c.Name(), c.Store()) }

// RegisterFunc makes a user function callable from queries.
func (e *Engine) RegisterFunc(name string, f Func) { e.rt.RegisterFunc(name, f) }

// RegisterDoc makes a static document available to doc(uri).
func (e *Engine) RegisterDoc(uri string, doc *Node) { e.rt.RegisterDoc(uri, doc) }

// Compile parses and translates an XCQL query for the given mode.
func (e *Engine) Compile(src string, mode Mode) (*Query, error) { return e.rt.Compile(src, mode) }

// MustCompile compiles or panics.
func (e *Engine) MustCompile(src string, mode Mode) *Query { return e.rt.MustCompile(src, mode) }

// Eval compiles and runs a query once at the evaluation instant, using
// the QaC+ plan.
func (e *Engine) Eval(src string, at time.Time) (Sequence, error) {
	q, err := e.Compile(src, QaCPlus)
	if err != nil {
		return nil, err
	}
	return q.Eval(at)
}

// EvalContext compiles and runs a query once under a context and limits,
// using the QaC+ plan: cancelling ctx (or exceeding lim) aborts the
// evaluation cooperatively with a structured *EvalError.
func (e *Engine) EvalContext(ctx context.Context, src string, at time.Time, lim Limits) (Sequence, error) {
	q, err := e.Compile(src, QaCPlus)
	if err != nil {
		return nil, err
	}
	return q.EvalLimits(ctx, at, lim)
}

// EvalContextStats is EvalContext returning the evaluation's cost profile
// alongside the result. Stats are populated even when the evaluation
// fails, so a tripped budget still shows how far it got.
func (e *Engine) EvalContextStats(ctx context.Context, src string, at time.Time, lim Limits) (Sequence, EvalStats, error) {
	q, err := e.Compile(src, QaCPlus)
	if err != nil {
		return nil, EvalStats{}, err
	}
	seq, err := q.EvalLimits(ctx, at, lim)
	return seq, q.LastStats(), err
}

// SetTraceSink installs (or, with nil, removes) the span sink receiving
// parse/translate/execute/materialize trace events for every compile and
// evaluation on this engine. Tracing is off by default and the disabled
// path adds no allocations.
func (e *Engine) SetTraceSink(s TraceSink) { e.rt.SetTraceSink(s) }

// NewFlightRecorder returns a bounded in-memory tracer. Attach it to the
// pieces whose spans should join one tree: Server/Client/SegStore
// SetFlightRecorder, Engine.SetFlightRecorder (or
// QueryRegistry.SetFlightRecorder) for the standing-query registry. The
// zero-value options give a 256-trace ring with 1-in-16 uniform sampling
// plus always-kept p99/flagged traces.
func NewFlightRecorder(opts FlightRecorderOptions) *FlightRecorder {
	return obs.NewFlightRecorder(opts)
}

// SetFlightRecorder wires a flight recorder into the engine's standing-
// query registry: traced arrivals record registry.eval/fanout spans and
// deliveries carry the trace id (RegistryResult.TraceID, WireResult
// "trace"). nil detaches. The engine's QueryAPI exposes the recorder at
// GET /v1/tracez via QueryAPI.SetFlightRecorder.
func (e *Engine) SetFlightRecorder(rec *FlightRecorder) {
	e.Registry().SetFlightRecorder(rec)
}

// DefaultRegistry is the process-wide metrics registry; streamdemo and
// other long-running hosts register their servers and clients here.
func DefaultRegistry() *Registry { return obs.Default }

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return obs.NewRegistry() }

// ResourceCause returns the tripped resource limit behind err, if any:
// a convenience over errors.As for the common "which limit killed this
// evaluation" question.
func ResourceCause(err error) (*ResourceError, bool) { return ixcql.ResourceCause(err) }

// SetMaxConcurrentEvals bounds concurrent query evaluations across the
// engine (n <= 0 means unlimited). Over the bound, evaluations are
// rejected fast with an *OverloadError instead of queuing unboundedly —
// admission control for heavily loaded servers.
func (e *Engine) SetMaxConcurrentEvals(n int) { e.rt.SetMaxConcurrentEvals(n) }

// MaterializeView reconstructs the full temporal view of a stream at the
// evaluation instant (the paper's temporalize, §5).
func (e *Engine) MaterializeView(name string, at time.Time) (*Node, error) {
	st := e.rt.Store(name)
	if st == nil {
		return nil, fmt.Errorf("xcql: stream %q is not registered", name)
	}
	return temporal.Temporalize(st, at)
}

// --- constructors re-exported from the internal packages ------------------

// ParseTagStructure parses the <stream:structure> wire form.
func ParseTagStructure(src string) (*TagStructure, error) { return tagstruct.ParseString(src) }

// MustParseTagStructure parses or panics.
func MustParseTagStructure(src string) *TagStructure { return tagstruct.MustParseString(src) }

// InferTagStructure derives a tag structure from a sample document.
func InferTagStructure(doc *Node) (*TagStructure, error) { return tagstruct.Infer(doc) }

// ParseDocument parses an XML document.
func ParseDocument(src string) (*Node, error) { return xmldom.ParseString(src) }

// MustParseDocument parses or panics.
func MustParseDocument(src string) *Node { return xmldom.MustParseString(src) }

// NewFragmenter returns a fragmenter for the structure.
func NewFragmenter(s *TagStructure) *Fragmenter { return fragment.NewFragmenter(s) }

// NewStore returns an empty fragment store.
func NewStore(s *TagStructure) *Store { return fragment.NewStore(s) }

// NewFragment builds a fragment.
func NewFragment(fillerID, tsid int, validTime time.Time, payload *Node) *Fragment {
	return fragment.New(fillerID, tsid, validTime, payload)
}

// NewHole builds a <hole id tsid/> placeholder element.
func NewHole(fillerID, tsid int) *Node { return fragment.NewHole(fillerID, tsid) }

// ParseFragment parses the <filler> wire form. A delta frame is a version
// only over its predecessor, which a parse has no store to find: it
// returns a *MissingPredecessorError.
func ParseFragment(src string) (*Fragment, error) { return fragment.Parse(src) }

// NewServer creates a broadcast server for a named stream.
func NewServer(name string, s *TagStructure) *Server { return stream.NewServer(name, s) }

// NewClient creates a receive-only stream client.
func NewClient(name string, s *TagStructure) *Client { return stream.NewClient(name, s) }

// DialTCP registers with a TCP stream server and returns a consuming
// client with automatic reconnect enabled.
func DialTCP(addr string) (*Client, error) { return stream.DialTCP(addr) }

// Dial registers with a TCP stream server under explicit reconnect
// options.
func Dial(addr string, opts DialOptions) (*Client, error) { return stream.Dial(addr, opts) }

// ServeTCP serves a stream server's fragment flow on a listener.
func ServeTCP(s *Server, ln net.Listener) error { return stream.ServeTCP(s, ln) }

// ServeTCPOptions is ServeTCP with tuning knobs and fault injection.
func ServeTCPOptions(s *Server, ln net.Listener, opts ServeOptions) error {
	return stream.ServeTCPOptions(s, ln, opts)
}

// NewFaultInjector builds a seeded transport-fault injector for
// ServeOptions.Faults.
func NewFaultInjector(plan FaultPlan) *FaultInjector { return stream.NewFaultInjector(plan) }

// OpenSegStore opens (creating if needed) a durable segment store rooted
// at dir, running crash recovery first: torn tails are truncated,
// corrupt files are quarantined-and-salvaged, and the report says exactly
// what was found — recovery never silently narrows the data.
func OpenSegStore(dir string, opts SegStoreOptions) (*SegStore, *RecoveryReport, error) {
	return segstore.Open(dir, opts)
}

// RecoverServer rebuilds a stream server from its durable log after a
// restart: sequence numbers continue monotonically, the replay window is
// reseeded, and the log stays attached for write-through (group commit:
// see Server).
func RecoverServer(name string, s *TagStructure, d DurableLog) (*Server, error) {
	return stream.RecoverServer(name, s, d)
}

// NewHistogram returns an empty latency histogram.
func NewHistogram() *Histogram { return obs.NewHistogram() }

// WatermarkLag is the event-time distance between a server's and a
// client's watermark: how stale the client's view of the stream is.
func WatermarkLag(s *Server, c *Client) time.Duration { return stream.WatermarkLag(s, c) }

// ParseDateTime parses an XCQL time literal ("now", "start", ISO-8601).
func ParseDateTime(s string) (DateTime, error) { return xtime.Parse(s) }

// ParseDuration parses an ISO-8601 duration literal such as PT1M.
func ParseDuration(s string) (Duration, error) { return xtime.ParseDuration(s) }

// FormatSequence renders a result sequence, one item per line: nodes as
// XML, atomics as their string value.
func FormatSequence(seq Sequence) string {
	var b strings.Builder
	for i, it := range seq {
		if i > 0 {
			b.WriteByte('\n')
		}
		if n, ok := it.(*Node); ok {
			b.WriteString(n.String())
		} else {
			b.WriteString(xq.StringValue(it))
		}
	}
	return b.String()
}

// StringValue returns the string value of one item.
func StringValue(it Item) string { return xq.StringValue(it) }

// NumberValue converts an item to a number (NaN when unconvertible).
func NumberValue(it Item) float64 { return xq.NumberValue(it) }
