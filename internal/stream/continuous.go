package stream

import (
	"log/slog"
	"sync"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/registry"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// Result is one evaluation of a continuous query — the registry's
// delivery to a registration (see registry.Result for the fields).
type Result = registry.Result

// ContinuousQuery re-evaluates a compiled XCQL query whenever new
// fragments arrive, emitting results to a callback. This is the
// "continuous output stream" of the paper's model: the query stands, the
// data moves.
//
// It is a private registry.Registry holding exactly one registration:
// evaluation, the delta against the previous result, degradation and
// re-emission all live there, and a query created here behaves — and
// traces — like one registered anywhere else. The registration is made
// at the first evaluation, from the Limits in force then; changing them
// later makes a new one, which re-emits the standing result.
type ContinuousQuery struct {
	query    *xcql.Query
	onResult func(Result)
	// Clock supplies the evaluation instant; defaults to time.Now. Tests
	// and replays pin it to the fragment timeline.
	Clock func() time.Time
	// Limits bounds each unit evaluation of the engine (deadline, step,
	// cardinality and byte budgets, the unit's own read included); the
	// zero value falls back to the compiled query's own. A
	// budget- or deadline-killed evaluation degrades the query instead of
	// wedging the delivering goroutine (see EvaluateFragment).
	Limits xcql.Limits

	logHolder
	// latency is the ingest→result histogram: from the trigger (the
	// fragment has just been applied to the store) to the callback returning.
	latency *obs.Histogram
	r       *registry.Registry

	// runMu serializes evaluations; last is what the current one delivered.
	runMu sync.Mutex
	last  Result

	mu sync.Mutex
	// reg is the one registration, made with the limits regLim.
	reg    *registry.Registration
	regLim xcql.Limits
}

// NewContinuousQuery wraps a compiled query. onResult is invoked after every
// (re-)evaluation, on the goroutine that delivered the triggering fragment.
func NewContinuousQuery(q *xcql.Query, onResult func(Result)) *ContinuousQuery {
	cq := &ContinuousQuery{query: q, onResult: onResult, Clock: time.Now, latency: obs.NewHistogram()}
	cq.r = registry.New(func() time.Time { return cq.Clock() })
	return cq
}

// registration returns the query's one registration, making it — or
// making it anew, when Limits changed since — on demand. A replacement
// inherits the degradation of the one it replaces.
func (cq *ContinuousQuery) registration() *registry.Registration {
	cq.mu.Lock()
	defer cq.mu.Unlock()
	if cq.reg != nil && cq.regLim == cq.Limits {
		return cq.reg
	}
	cq.regLim = cq.Limits
	reg, err := cq.r.Register(cq.query, registry.Options{Limits: cq.Limits, OnResult: cq.deliver})
	if err != nil {
		panic(err) // a nil query: the private registry has no admission bound
	}
	if cq.reg != nil {
		if reason, degraded := cq.reg.Degraded(); degraded {
			reg.Invalidate(reason)
		}
		cq.reg.Close()
	}
	cq.reg = reg
	return reg
}

// deliver is the registration's callback, run inside Apply. An evaluation
// error is EvaluateFragment's to return, not a result.
func (cq *ContinuousQuery) deliver(res Result) {
	cq.last = res
	if res.Err == nil && cq.onResult != nil {
		cq.onResult(res)
	}
}

// Latency is the ingest→result latency histogram (see the field doc).
func (cq *ContinuousQuery) Latency() *obs.Histogram { return cq.latency }

// SetFlightRecorder attaches a flight recorder: traced arrivals record the
// registry's "registry.eval" and "fanout" spans and the engine's
// "inc.recompute", the latency histogram keeps trace-id
// exemplars, and degraded evaluations flag their trace. nil detaches.
func (cq *ContinuousQuery) SetFlightRecorder(rec *obs.FlightRecorder) { cq.r.SetFlightRecorder(rec) }

// Evaluations returns the number of completed evaluations (including
// degraded ones): each one is one latency observation.
func (cq *ContinuousQuery) Evaluations() int64 { return cq.latency.Count() }

// Strategy describes how the engine decomposed the plan, and so which
// arrivals re-run what (see inc.Engine.Strategy).
func (cq *ContinuousQuery) Strategy() string { return cq.registration().Strategy() }

// ItemsSnapshot returns the full standing result at the last evaluated
// instant. The items are shared with the evaluator: do not mutate them.
func (cq *ContinuousQuery) ItemsSnapshot() xq.Sequence { return cq.registration().ItemsSnapshot() }

// BufferBytes is the current delta-state memory in serialized bytes: the
// engine's partial-match buffers.
func (cq *ContinuousQuery) BufferBytes() int64 { return cq.registration().Stats().BufferBytes }

// BufferHWMBytes is the high-water mark of BufferBytes: it tracks the
// standing result's cardinality, not the total output history.
func (cq *ContinuousQuery) BufferHWMBytes() int64 { return cq.registration().Stats().BufferHWMBytes }

// Attach subscribes the query to a client: every applied fragment
// triggers a re-evaluation, and a sequence gap invalidates the query — a
// lost filler can never silently narrow the result. There is no detach:
// a client-local query stops being fed when the client closes.
func (cq *ContinuousQuery) Attach(c *Client) {
	c.OnGap(func(g Gap) { cq.Invalidate(g.String()) })
	c.OnFragment(func(f *fragment.Fragment) { _ = cq.EvaluateFragment(f) })
}

// Invalidate marks the query degraded for the given reason and resets the
// delta state: the next evaluation re-emits everything it can still see,
// and every result carries the reason until ClearDegraded.
func (cq *ContinuousQuery) Invalidate(reason string) { cq.registration().Invalidate(reason) }

// ClearDegraded re-arms the query after the consumer has handled the
// degradation (e.g. re-fetched state out of band).
func (cq *ContinuousQuery) ClearDegraded() { cq.registration().ClearDegraded() }

// ResetDelta forgets previously seen results, so the next evaluation
// reports everything as new.
func (cq *ContinuousQuery) ResetDelta() { cq.registration().Invalidate("") }

// Evaluate is a fragment-less re-evaluation (e.g. on a clock advance).
func (cq *ContinuousQuery) Evaluate() error { return cq.EvaluateFragment(nil) }

// EvaluateFragment runs one evaluation triggered by the arrival of f,
// already applied to the store (nil for none), and emits the result: the
// engine touches only the state f can reach. A store that took fragments
// no evaluation was handed is re-read whole.
//
// A resource-governed failure — budget trip, deadline, admission-control
// rejection — is part of normal continuous operation, not an error: the
// query is invalidated and an empty result carrying the reason is emitted,
// so the subscription keeps flowing and the consumer sees why. Any other
// evaluation error is returned, and emits nothing.
func (cq *ContinuousQuery) EvaluateFragment(f *fragment.Fragment) error {
	start := time.Now()
	cq.runMu.Lock()
	defer cq.runMu.Unlock()
	cq.registration()
	cq.r.Apply(f)
	res := cq.last
	if res.Err != nil {
		return res.Err
	}
	elapsed := time.Since(start)
	cq.latency.ObserveExemplar(elapsed, res.TraceID)
	if l := cq.log(); l != nil {
		level := slog.LevelDebug
		if res.Degraded != "" {
			level = slog.LevelWarn
		}
		l.LogAttrs(logCtx, level, "continuous evaluation",
			slog.String("component", "cq"), slog.String("plan", cq.query.Mode.String()),
			slog.Int("delta", len(res.Delta)),
			slog.Duration("latency", elapsed), slog.String("degraded", res.Degraded))
	}
	return nil
}
