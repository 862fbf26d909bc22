package xcql

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/temporal"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// Runtime ties the compiler to live fragment stores: it registers named
// streams, compiles XCQL queries under a chosen plan, and supplies the
// intrinsic functions the translated plans call.
type Runtime struct {
	mu     sync.RWMutex
	stores map[string]*fragment.Store
	// funcs is what a plan's calls by name resolve against, over the
	// builtins: the functions registered by name. A plan's intrinsics are
	// compiled into their calls (Intrinsic) and never looked up. Every
	// evaluation reads this one table, and RegisterFunc replaces it rather
	// than write to it.
	funcs map[string]xq.Func
	docs  map[string]*xmldom.Node

	// gen counts the registrations a plan depends on (RegisterStream,
	// RegisterFunc), and plans keeps what Compile made at the current one.
	gen   uint64
	plans planCache

	// admission control: maxEvals > 0 bounds concurrent evaluations;
	// excess attempts are rejected with *OverloadError instead of
	// queuing unboundedly.
	maxEvals    int
	activeEvals int

	// trace is the optional span sink: nil (the default) disables
	// tracing entirely, and the disabled path neither allocates nor
	// reads the clock beyond the always-on phase timings.
	trace obs.TraceSink

	// scratch is what an evaluation borrows and no result keeps, kept for
	// the next one (scratch.go).
	scratch atomic.Pointer[scratch]
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{
		stores: make(map[string]*fragment.Store),
		funcs:  make(map[string]xq.Func),
		docs:   make(map[string]*xmldom.Node),
	}
}

// RegisterStream makes a fragment store queryable as stream(name).
func (rt *Runtime) RegisterStream(name string, store *fragment.Store) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.stores[name] = store
	rt.bump()
}

// Store returns the store registered under name, or nil.
func (rt *Runtime) Store(name string) *fragment.Store {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.stores[name]
}

// RegisterFunc registers a user function (e.g. the paper's triangulate
// and distance helpers) callable from queries.
func (rt *Runtime) RegisterFunc(name string, f xq.Func) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	funcs := maps.Clone(rt.funcs)
	funcs[name] = f
	rt.funcs = funcs
	rt.bump()
}

// bump starts a new generation. A plan reads only the Tag Structures of the
// streams registered; RegisterFunc bumps it too, so that no plan outlives a
// change of what its calls may name. Called with rt.mu held.
func (rt *Runtime) bump() {
	rt.gen++
	rt.plans.reset()
}

func (rt *Runtime) funcTable() map[string]xq.Func {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.funcs
}

func (rt *Runtime) doc(uri string) (*xmldom.Node, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if d, ok := rt.docs[uri]; ok {
		return d, nil
	}
	return nil, fmt.Errorf("xcql: unknown document %q", uri)
}

// RegisterDoc makes a static document available to doc(uri).
func (rt *Runtime) RegisterDoc(uri string, doc *xmldom.Node) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.docs[uri] = doc
}

// Structures snapshots the tag structures of all registered streams.
func (rt *Runtime) Structures() map[string]*tagstruct.Structure {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	out := make(map[string]*tagstruct.Structure, len(rt.stores))
	for name, st := range rt.stores {
		out[name] = st.Structure()
	}
	return out
}

// SetMaxConcurrentEvals bounds the number of evaluations the runtime
// admits at once (n <= 0 means unlimited, the default). When the bound
// is reached, further Eval/EvalContext calls fail fast with an
// *OverloadError — explicit load shedding instead of unbounded queuing.
func (rt *Runtime) SetMaxConcurrentEvals(n int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if n < 0 {
		n = 0
	}
	rt.maxEvals = n
}

// ActiveEvals reports the number of evaluations currently running.
func (rt *Runtime) ActiveEvals() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.activeEvals
}

func (rt *Runtime) admit() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.maxEvals > 0 && rt.activeEvals >= rt.maxEvals {
		return &OverloadError{Active: rt.activeEvals, Max: rt.maxEvals}
	}
	rt.activeEvals++
	return nil
}

func (rt *Runtime) release() {
	rt.mu.Lock()
	rt.activeEvals--
	rt.mu.Unlock()
}

// SetTraceSink installs (or, with nil, removes) the span sink that
// receives parse/translate/execute/materialize trace events for every
// compile and evaluation on this runtime.
func (rt *Runtime) SetTraceSink(s obs.TraceSink) {
	rt.mu.Lock()
	rt.trace = s
	rt.mu.Unlock()
}

func (rt *Runtime) traceSink() obs.TraceSink {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.trace
}

// Query is a compiled XCQL query bound to a runtime.
type Query struct {
	rt     *Runtime
	Mode   Mode
	Source string
	// AST is the parsed, untranslated query.
	AST xq.Expr
	// Plan is the translated engine expression actually evaluated. It and
	// AST are shared with every Query compiled from the same text (the
	// plan cache), and read-only.
	Plan xq.Expr
	// streams are the streams the query names, in first-reference order:
	// the stores its evaluations resolve holes in.
	streams []string
	// Limits bounds every evaluation of this query: steps, recursion
	// depth, cardinality, bytes and wall time. The zero value is
	// unlimited except for the recursion-depth default. Set it before
	// sharing the query across goroutines.
	Limits Limits

	// compile-phase wall times, copied into every evaluation's stats.
	parseTime     time.Duration
	translateTime time.Duration

	statsMu   sync.Mutex
	lastStats obs.EvalStats
}

// Deprecated: WithParallelism does nothing and returns q. Holes are
// resolved sequentially; it stays only until the end-to-end harness under
// bench/ stops calling it (ROADMAP item 1 (a)).
func (q *Query) WithParallelism(int) *Query { return q }

// Deprecated: WithCache does nothing and returns q. Every evaluation reads
// its stores uncached; it stays only until the end-to-end harness under
// bench/ stops calling it (ROADMAP item 1 (a)).
func (q *Query) WithCache(int) *Query { return q }

// LastStats returns a snapshot of the cost counters from the most recent
// evaluation of this query (last-writer-wins under concurrent use). The
// zero value is returned before the first evaluation. Stats are recorded
// even when the evaluation failed, so a budget trip still shows how far
// it got. For a standing query the counters are those of its engine's
// last advance: every registration of a registry's sharing group reads
// the cost of the one advance that served them all.
func (q *Query) LastStats() obs.EvalStats {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	return q.lastStats
}

// storeStats copies s: the caller may go on to reuse it for its next
// evaluation (a standing query's share does), and a LastStats reader must
// not see that one half-counted.
func (q *Query) storeStats(s *obs.EvalStats) {
	q.statsMu.Lock()
	q.lastStats = *s
	q.statsMu.Unlock()
}

// Compile parses src and translates it for the given mode against the
// streams currently registered. A text compiled before under the same mode,
// with no stream or function registered since, is neither parsed nor
// translated again: the Query shares the plan made then (plancache.go), its
// ParseTime and TranslateTime are zero, and the one span it traces is a
// translate span of the lookup that stood in for translation.
func (rt *Runtime) Compile(src string, mode Mode) (*Query, error) {
	rt.mu.RLock()
	sink := rt.trace
	var start time.Time
	if sink != nil {
		start = time.Now()
	}
	key := planKey{src: src, mode: mode, gen: rt.gen, bare: bareReads, spans: pushSpans}
	c := rt.plans.plans[key]
	rt.mu.RUnlock()
	if c == nil {
		c, err := rt.compile(src, mode)
		if err != nil {
			return nil, err
		}
		rt.mu.Lock()
		if key.gen == rt.gen { // a plan of an older generation no key reaches
			rt.plans.put(key, c)
		}
		rt.mu.Unlock()
		return rt.query(src, mode, c, c.parseTime, c.translateTime), nil
	}
	if sink != nil {
		sink.Span("translate", "cached "+mode.String(), start, time.Since(start))
	}
	return rt.query(src, mode, c, 0, 0), nil
}

// query is a new Query over the plan c, with its own Limits, LastStats and
// compile times.
func (rt *Runtime) query(src string, mode Mode, c *compiled, parseTime, translateTime time.Duration) *Query {
	return &Query{
		rt: rt, Mode: mode, Source: src, AST: c.ast, Plan: c.plan, streams: c.streams,
		parseTime: parseTime, translateTime: translateTime,
	}
}

// compile parses and translates src: what Compile does on a miss.
func (rt *Runtime) compile(src string, mode Mode) (*compiled, error) {
	parseStart := time.Now()
	ast, err := xq.Parse(src)
	parseTime := time.Since(parseStart)
	if err != nil {
		return nil, err
	}
	trStart := time.Now()
	plan, streams, err := rt.translate(ast, mode)
	if err == nil && mode == QaCPlus {
		attachReadAhead(plan)
	}
	translateTime := time.Since(trStart)
	if err != nil {
		return nil, err
	}
	if sink := rt.traceSink(); sink != nil {
		sink.Span("parse", src, parseStart, parseTime)
		sink.Span("translate", mode.String(), trStart, translateTime)
	}
	return &compiled{ast: ast, plan: plan, streams: streams, parseTime: parseTime, translateTime: translateTime}, nil
}

// MustCompile compiles or panics; for tests and examples.
func (rt *Runtime) MustCompile(src string, mode Mode) *Query {
	q, err := rt.Compile(src, mode)
	if err != nil {
		panic(err)
	}
	return q
}

// Eval runs the plan at the evaluation instant and materializes the
// result: holes remaining in returned fragments are resolved (the final
// Materialize step of Figure 2), so callers always see the temporal view.
func (q *Query) Eval(at time.Time) (xq.Sequence, error) {
	return q.eval(context.Background(), at, q.Limits, true)
}

// EvalContext is Eval under a context: cancelling ctx aborts the
// evaluation cooperatively (the evaluator polls between steps), and the
// query's Limits are enforced. Limit trips, cancellation and evaluator
// panics all surface as a structured *EvalError carrying the query text
// and wrapping the *budget.ResourceError (or panic) that caused it; the
// engine, its stores and other queries remain fully usable afterwards.
func (q *Query) EvalContext(ctx context.Context, at time.Time) (xq.Sequence, error) {
	return q.eval(ctx, at, q.Limits, true)
}

// EvalLimits is EvalContext with explicit limits overriding q.Limits
// for this evaluation only.
func (q *Query) EvalLimits(ctx context.Context, at time.Time, lim Limits) (xq.Sequence, error) {
	return q.eval(ctx, at, lim, true)
}

// EvalRaw runs the plan without the final materialization; benchmarks use
// it to time pure plan execution, and callers that re-fragment results
// want the holes kept.
func (q *Query) EvalRaw(at time.Time) (xq.Sequence, error) {
	return q.eval(context.Background(), at, q.Limits, false)
}

// EvalEach is EvalLimits for a caller that reads the result an item at a
// time and keeps none of it: each item goes to yield as the plan produces
// it, materialized as Eval materializes it, each item's holes filled under
// a seen map of its own (materializeResult). An unordered FLWOR yields each
// binding's return as it completes and builds the next binding's over it
// once yield returns (xq.EvalEach), so an item, and any node it holds, is
// yield's only for the call; any other plan is evaluated whole, then
// yielded item by item. An error yield returns ends the evaluation with
// it. Admission, limits, panic containment and LastStats are Eval's, and so
// are the trace spans: execute is the evaluation less the filling, and
// materialize the filling, traced as if it followed.
func (q *Query) EvalEach(ctx context.Context, at time.Time, lim Limits, yield func(xq.Item) error) error {
	return q.run(ctx, at, lim, func(ctx *xq.Context, stats *obs.EvalStats, sink obs.TraceSink) error {
		execStart := time.Now()
		var fill time.Duration
		static := ctx.Static
		err := xq.EvalEach(q.Plan, ctx, func(seq xq.Sequence) error {
			for _, it := range seq {
				if n, ok := it.(*xmldom.Node); ok && hasHoles(n) {
					start := time.Now()
					it = temporal.FillHoles(static.Holes, n, make(map[int]bool), nil, static.Stats)
					fill += time.Since(start)
				}
				if err := yield(it); err != nil {
					return err
				}
			}
			return nil
		})
		stats.ExecTime, stats.MaterializeTime = time.Since(execStart)-fill, fill
		if sink != nil {
			sink.Span("execute", q.Mode.String(), execStart, stats.ExecTime)
			if err == nil {
				sink.Span("materialize", q.Mode.String(), execStart.Add(stats.ExecTime), fill)
			}
		}
		return err
	})
}

// eval is Eval and its variants: the plan evaluated whole and, when
// materialize is set, its result materialized.
func (q *Query) eval(ctx context.Context, at time.Time, lim Limits, materialize bool) (seq xq.Sequence, err error) {
	err = q.run(ctx, at, lim, func(ctx *xq.Context, stats *obs.EvalStats, sink obs.TraceSink) error {
		execStart := time.Now()
		var err error
		seq, err = xq.Eval(q.Plan, ctx)
		stats.ExecTime = time.Since(execStart)
		if sink != nil {
			sink.Span("execute", q.Mode.String(), execStart, stats.ExecTime)
		}
		if err != nil || !materialize {
			return err
		}
		matStart := time.Now()
		seq = materializeResult(seq, ctx.Static, owned(q.Plan))
		stats.MaterializeTime = time.Since(matStart)
		if sink != nil {
			sink.Span("materialize", q.Mode.String(), matStart, stats.MaterializeTime)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return seq, nil
}

// run is the engine boundary every evaluation crosses: admission control,
// the evaluation's scratch and the static environment kept in it, armed
// with a new budget, and panic containment. exec evaluates the plan under
// the root context ctx, recording its phases in stats and sink (nil: not
// tracing). Any panic escaping the evaluator — a budget trip from a
// non-error-returning walk, or a genuine bug — is converted into an
// *EvalError here instead of killing the process and every attached
// continuous query.
func (q *Query) run(ctx context.Context, at time.Time, lim Limits, exec func(*xq.Context, *obs.EvalStats, obs.TraceSink) error) (err error) {
	if err := q.rt.admit(); err != nil {
		return err
	}
	defer q.rt.release()
	stats := &obs.EvalStats{
		Plan:          q.Mode.String(),
		ParseTime:     q.parseTime,
		TranslateTime: q.translateTime,
	}
	sink := q.rt.traceSink()
	sc := q.rt.takeScratch()
	defer q.rt.giveScratch(sc)
	e := sc.env(q)
	e.arm(q, ctx, at, lim, stats, sc)
	if at.IsZero() {
		e.static.Now = time.Now().UTC() // as xq.NewContext makes it
	}
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			err = q.contained(p)
		}
		// stats are recorded even on failure: a tripped budget still
		// shows how far the evaluation got before it was cut off.
		stats.Steps, stats.Items, stats.BytesMaterialized = e.budget.Used()
		stats.TotalTime = time.Since(start)
		q.storeStats(stats)
		if sink != nil {
			sink.Span("eval", q.Mode.String(), start, stats.TotalTime)
		}
		e.disarm()
	}()
	if err := exec(e.root, stats, sink); err != nil {
		return q.wrapResource(err)
	}
	return nil
}

// contained is the error a panic that escaped the evaluator becomes: a
// budget trip keeps its *budget.ResourceError, anything else its stack.
func (q *Query) contained(p any) error {
	if re, ok := p.(*budget.ResourceError); ok {
		return &EvalError{Query: q.Source, Mode: q.Mode, Err: re}
	}
	return &EvalError{Query: q.Source, Mode: q.Mode, Err: fmt.Errorf("panic: %v", p), Stack: debug.Stack()}
}

// wrapResource dresses resource-limit errors in the *EvalError envelope
// (query text + plan); other evaluation errors pass through untouched.
func (q *Query) wrapResource(err error) error {
	var re *budget.ResourceError
	if errors.As(err, &re) {
		return &EvalError{Query: q.Source, Mode: q.Mode, Err: err}
	}
	return err
}

// evalEnv is an evaluation's static environment: the xq.Static it runs under
// and its root context, the budget that meters it, and the stores its hole
// crossings read. An owner makes one (Query.newEnv) — a runtime's scratch
// one per access kind for the evaluations it serves, an incremental
// engine's frame one of its own — and arms it for each evaluation in turn
// (arm), so that an evaluation allocates none of it.
type evalEnv struct {
	static xq.Static
	root   *xq.Context
	budget budget.Budget
	stores []*fragment.Store
}

// newEnv makes an environment for evaluations of plans under q's mode: the
// function table, the budget, and the access path every store read goes
// through — the one place the mode's index is chosen.
func (q *Query) newEnv() *evalEnv {
	rt, e := q.rt, &evalEnv{}
	e.static = xq.Static{
		Doc:    rt.doc,
		Holes:  temporal.BudgetResolver(&e.budget, e.resolve),
		Budget: &e.budget,
		Access: fragment.NewAccess(q.Mode.access(), fragment.Eval{}),
	}
	e.static.Stream = func(name string) (xq.Sequence, error) {
		// uncompiled stream() access sees the materialized view
		return rt.view(name, &e.static)
	}
	e.root = xq.NewContext(&e.static)
	return e
}

// arm readies e for an evaluation of q at the instant at under a budget
// built from ctx and lim, its counters charged to stats, over the scratch
// sc: the runtime's functions and q's stores as they are now.
func (e *evalEnv) arm(q *Query, ctx context.Context, at time.Time, lim Limits, stats *obs.EvalStats, sc *scratch) {
	rt := q.rt
	e.budget.Reset(ctx, lim)
	rt.mu.RLock()
	e.static.Funcs = rt.funcs
	e.stores = e.stores[:0]
	for _, name := range q.streams {
		if st := rt.stores[name]; st != nil {
			e.stores = append(e.stores, st)
		}
	}
	rt.mu.RUnlock()
	e.static.Now, e.static.Stats, e.static.Scratch = at, stats, &sc.eval
	e.static.Access.Arm(fragment.Eval{At: at, Stats: stats, Budget: &e.budget, Scratch: &sc.read})
}

// disarm drops e's hold on the evaluation it was armed for and on its
// scratch, so that the runtime may hand that to another evaluation.
func (e *evalEnv) disarm() {
	e.static.Access.Arm(fragment.Eval{})
	e.static.Stats, e.static.Scratch = nil, nil
}

// resolve crosses holes that no stream-named call covers — steps over
// untyped content and the final materialization — through the stores of
// the streams the plan names, in first-reference order; the first store
// holding the id answers. Filler ids are unique within a stream only, so a
// plan never resolves through a stream it does not name, and a join of
// streams with overlapping ids whose result carries holes resolves them in
// its first stream (DESIGN.md "Access paths").
func (e *evalEnv) resolve(holeID int) []*xmldom.Node {
	for _, st := range e.stores {
		if els, _ := e.static.Access.Read(st, fragment.Read{Source: fragment.FromHole, ID: holeID}); len(els) > 0 {
			return els
		}
	}
	return nil
}

func (rt *Runtime) storeOrErr(name string) (*fragment.Store, error) {
	st := rt.Store(name)
	if st == nil {
		return nil, fmt.Errorf("xcql: stream %q is not registered", name)
	}
	return st, nil
}

// --- intrinsics -----------------------------------------------------------

// appendRead meters the output of a store read — cardinality plus the tree
// bytes of every resolved filler version, stamps the bytes the stamps of
// the bare tops among them would add (fragment.Group.Stamps) — and appends
// it to dst as items, growing dst at most once (xq.AppendNodes). This is
// what bounds the fragment plans' access paths, and it is the same charge
// for bare tops as for stamped ones.
func appendRead(dst xq.Sequence, b *budget.Budget, out []*xmldom.Node, stamps int) (xq.Sequence, error) {
	if err := meterNodes(b, out, stamps); err != nil {
		return nil, err
	}
	return xq.AppendNodes(dst, out), nil
}

// giveNodes hands back to sc the list a read returned over lent, the list
// sc lent it (fragment.Read.Into), and lent itself when the read returned
// another — cleared whole: the read may have written over it before it
// outgrew it.
func giveNodes(sc *fragment.Scratch, els, lent []*xmldom.Node) {
	sc.GiveNodes(els)
	if cap(lent) > 0 && (cap(els) == 0 || &els[:1][0] != &lent[:1][0]) {
		clear(lent[:cap(lent)])
		sc.GiveNodes(lent)
	}
}

// meterNodes is appendRead's charge.
func meterNodes(b *budget.Budget, out []*xmldom.Node, stamps int) error {
	return meter(b, out, stamps, func(nd *xmldom.Node) *xmldom.Node { return nd })
}

// meterItems is appendRead's charge of nodes a caller holds as items.
func meterItems(b *budget.Budget, out xq.Sequence, stamps int) error {
	return meter(b, out, stamps, func(it xq.Item) *xmldom.Node { return it.(*xmldom.Node) })
}

func meter[T any](b *budget.Budget, out []T, stamps int, node func(T) *xmldom.Node) error {
	if b == nil {
		return nil
	}
	if err := b.AddItems(len(out)); err != nil {
		return err
	}
	n := int64(stamps)
	for _, it := range out {
		n += int64(node(it).TreeSize())
	}
	return b.AddBytes(n)
}

// view is CaQ's access: the temporal view of stream name, materialized
// whole.
func (rt *Runtime) view(name string, static *xq.Static) (xq.Sequence, error) {
	st, err := rt.storeOrErr(name)
	if err != nil {
		return nil, err
	}
	// CaQ's whole-document materialization is metered: an oversized view
	// aborts mid-reconstruction instead of exhausting memory first
	view, err := temporal.TemporalizeWith(st, static.Now, temporal.TemporalizeOptions{
		Budget: static.Budget,
		Stats:  static.Stats,
		Access: static.Access,
	})
	if err != nil {
		return nil, err
	}
	doc := xmldom.NewDocument()
	doc.AppendChild(view)
	return xq.Singleton(doc), nil
}

// root is the fragment plans' stream(): the document of the root filler's
// current version.
func root(ctx *xq.Context, st *fragment.Store) (xq.Sequence, error) {
	els, _ := ctx.Static.Access.Read(st, fragment.Read{Source: fragment.FromFiller, ID: fragment.RootFillerID})
	if len(els) == 0 {
		return nil, nil
	}
	// only the current version of the root document is the stream's face
	doc := xmldom.NewDocument()
	doc.AppendChild(els[len(els)-1])
	return xq.Singleton(doc), nil
}

// fillers is get_fillers of §5: for every hole with the call's tsid in
// the input nodes, return the versions of its fillers. Each filler id
// resolves once per call — several versions of the same container carry
// the same holes, and a child is one element, not one element per parent
// version (matches Temporalize's rule). Whether the id set costs one pass
// per hole, one batched pass or an index fetch is the access path's
// business. A per-parent list applies to each input node's group of
// versions: the read gets the nodes' ids as groups, and a window when the
// list opens with one. A node that holds no hole of the tag contributes
// its children of the tag's name where it stands (callInput). A call
// on the binding of a for clause that read ahead takes its group of the
// clause's one read instead (takeAhead). A Bare call reads bare tops. A
// call with a lifespan bound reads under it, projects what lies below the
// versions kept (below) and the inline children whole; a version range
// over inline children as well numbers them all, so there the projection
// runs over the whole output, as the projection call did. What the call
// returns is appended to dst (appendRead; nil: a sequence of its own), but
// a group taken of a read-ahead, which is handed out as its window unless
// into is set.
func (in *Intrinsic) fillers(ctx *xq.Context, st *fragment.Store, nodes, dst xq.Sequence, into bool) (xq.Sequence, error) {
	tsid, each, keep := in.TSIDs[0], in.each, in.filter.bind(ctx.Static)
	var span fragment.Span
	if in.span != nil {
		var err error
		if span, err = in.span.eval(ctx); err != nil {
			return nil, err
		}
	} else if keep == nil {
		if seq, ok, err := takeAhead(ctx, nodes, st, in); ok {
			if err != nil || !into {
				return seq, err
			}
			return append(xq.Grow(dst, len(seq)), seq...), nil
		}
	}
	sc := ctx.Static.Access.Scratch()
	var input callInput
	input.collect(sc, nodes, tsid, st.Structure().ByID(tsid), each != nil)
	defer input.release()
	read := span
	if span.Kind == fragment.VersionSpan && input.inline != nil {
		read = fragment.Span{}
	}
	var els []*xmldom.Node
	var took fragment.Group
	lent := sc.Nodes()
	defer func() { giveNodes(sc, els, lent) }()
	if len(input.ids) > 0 {
		r := fragment.Read{IDs: input.ids, Keep: keep, Groups: input.groups, Bare: in.Bare, Span: read, Into: lent}
		if each != nil {
			each.window(&r)
		}
		els, took = ctx.Static.Access.Read(st, r)
	}
	var rest, preds []xq.Expr
	if each != nil {
		rest, preds = each.rest(), each.preds
	}
	if input.inline == nil && len(rest) == 0 {
		below(ctx.Static, st, els, span)
		return appendRead(dst, ctx.Static.Budget, els, took.Stamps)
	}
	below(ctx.Static, st, els, read)
	// the read served the window a list opens with, not the inline children
	var out []*xmldom.Node
	lo := 0
	err := input.each(func(g int, kids []*xmldom.Node) (err error) {
		if g < 0 {
			kids = keep.Sift(nil, kids)
			if read.Kind == fragment.IntervalSpan {
				kids = project(ctx.Static, st, kids, read)
			}
			out, err = applyPreds(ctx, out, kids, preds)
			return err
		}
		out, err = applyPreds(ctx, out, els[lo:input.groups[g].End], rest)
		lo = input.groups[g].End
		return err
	})
	if err != nil {
		return nil, err
	}
	if span.Kind == fragment.VersionSpan && read.Kind == fragment.NoSpan {
		out = project(ctx.Static, st, out, span)
	}
	return appendRead(dst, ctx.Static.Budget, out, took.Stamps)
}

// callInput is what a fillers call reads of its input nodes — and a fold
// and a for clause's read-ahead, in its place: the hole ids of its tag, in
// groups, and the children of the tag's name that a node holding none of
// its holes holds inline, after the groups before it. Such a node may be
// materialized already (e.g. the output of an interval projection, which
// resolves holes while clipping); one holding neither contributes nothing.
// A group is one input item's ids under a per-parent list or for a
// read-ahead, else those of a run of nodes between inline ones; a call
// with neither reads its ids as one set. The ids and groups are borrowed
// of the evaluation's scratch (sc) and given back by release.
type callInput struct {
	ids    []int
	groups []fragment.Group
	inline []inlineKids
	sc     *fragment.Scratch
}

// inlineKids are one input node's inline children, and how many of the
// read's groups stand before them.
type inlineKids struct {
	before int
	kids   []*xmldom.Node
}

// collect reads nodes into in, over buffers borrowed of sc: the holes of
// tsid and, when tag is given, the inline children of its name — each item
// of nodes a group of its own when perItem, empty when it holds no hole.
// groups and inline stay nil when nothing is added to them: a read without
// groups is one unwindowed group, and a call without inline children takes
// the fast path.
func (in *callInput) collect(sc *fragment.Scratch, nodes xq.Sequence, tsid int, tag *tagstruct.Tag, perItem bool) {
	in.sc, in.ids, in.groups, in.inline = sc, sc.IDs(), nil, nil
	if perItem {
		// sized once: a group per item, and every item's holes counted
		total := 0
		for _, it := range nodes {
			if n, ok := it.(*xmldom.Node); ok {
				total += fragment.CountHoles(n, tsid)
			}
		}
		in.ids, in.groups = slices.Grow(in.ids, total), slices.Grow(sc.Groups(), len(nodes))
	}
	for _, it := range nodes {
		if n, ok := it.(*xmldom.Node); ok {
			if in.ids == nil {
				// the first node's children bound its holes: most calls
				// cross the holes of one node
				in.ids = make([]int, 0, len(n.Children))
			}
			start := len(in.ids)
			if in.ids = fragment.HoleIDs(in.ids, n, tsid); len(in.ids) == start && tag != nil {
				if kids := n.ChildElements(tag.Name); len(kids) > 0 {
					in.closeRun()
					in.inline = append(in.inline, inlineKids{before: len(in.groups), kids: kids})
				}
			}
		}
		if perItem {
			in.groups = append(in.groups, fragment.Group{End: len(in.ids)})
		}
	}
	if len(in.inline) > 0 {
		in.closeRun()
	}
	if len(in.groups) == 0 {
		sc.GiveGroups(in.groups)
		in.groups = nil
	}
}

// closeRun closes the group of the ids read since the last group.
func (in *callInput) closeRun() {
	if n := len(in.groups); len(in.ids) > 0 && (n == 0 || in.groups[n-1].End < len(in.ids)) {
		if in.groups == nil {
			in.groups = in.sc.Groups()
		}
		in.groups = append(in.groups, fragment.Group{End: len(in.ids)})
	}
}

// release gives back the buffers collect borrowed.
func (in *callInput) release() {
	in.sc.GiveIDs(in.ids)
	in.sc.GiveGroups(in.groups)
	in.ids, in.groups = nil, nil
}

// each visits the call's output in input order: each group g of the read,
// and, as g < 0, each node's inline children, kids.
func (in *callInput) each(visit func(g int, kids []*xmldom.Node) error) error {
	k := 0
	for g := 0; ; g++ {
		for ; k < len(in.inline) && in.inline[k].before == g; k++ {
			if err := visit(-1, in.inline[k].kids); err != nil {
				return err
			}
		}
		if g == len(in.groups) {
			return nil
		}
		if err := visit(g, nil); err != nil {
			return err
		}
	}
}

// byTSID is QaC+'s descendant jump: all filler versions whose tsid is
// one of the call's, without touching any other document level, appended
// to dst.
func (in *Intrinsic) byTSID(ctx *xq.Context, st *fragment.Store, dst xq.Sequence) (xq.Sequence, error) {
	keep := in.filter.bind(ctx.Static)
	var span fragment.Span
	if in.span != nil {
		var err error
		if span, err = in.span.eval(ctx); err != nil {
			return nil, err
		}
	}
	sc := ctx.Static.Access.Scratch()
	lent := sc.Nodes()
	var out []*xmldom.Node
	defer func() { giveNodes(sc, out, lent) }()
	stamps := 0
	for i, tsid := range in.TSIDs {
		r := fragment.Read{Source: fragment.FromTSID, ID: tsid, Keep: keep, Bare: in.Bare, Span: span}
		if i == 0 {
			r.Into = lent
		}
		els, g := ctx.Static.Access.Read(st, r)
		if i == 0 {
			out = els
		} else {
			out = append(out, els...)
		}
		stamps += g.Stamps
	}
	below(ctx.Static, st, out, span)
	return appendRead(dst, ctx.Static.Budget, out, stamps)
}

// materializeResult resolves any holes left in result nodes (the final
// Materialize of Figure 2) so every caller sees hole-free temporal XML.
// Filling is copy-on-write (temporal.FillHoles): only the spine above a
// hole is rebuilt, hole-free subtrees stay shared with the store. The
// walk itself is unmetered; the resolver (Static.Holes) charges the
// budget, so an attack that hides its bulk behind holes in the result
// still trips mid-materialization (the panic is contained by Query.eval).
// Each result item resolves its holes under a seen map of its own.
//
// A result the evaluation built for itself (own) is filled in place and
// never copied; any other is copied first, as it may be a sequence every
// evaluation hands back — a literal's, built once per plan.
func materializeResult(seq xq.Sequence, static *xq.Static, own bool) xq.Sequence {
	out := seq
	if !own {
		out = slices.Clone(seq)
	}
	for i, it := range out {
		if n, ok := it.(*xmldom.Node); ok && hasHoles(n) {
			out[i] = temporal.FillHoles(static.Holes, n, make(map[int]bool), nil, static.Stats)
		}
	}
	return out
}

// owned reports that what the plan e evaluates to is a sequence built by
// that evaluation alone, which no one else holds: a FLWOR's result or a
// constructed element's. Any other expression may hand back a sequence a
// later evaluation hands back too.
func owned(e xq.Expr) bool {
	switch e.(type) {
	case *xq.FLWOR, *xq.ElemCtor:
		return true
	}
	return false
}

func hasHoles(n *xmldom.Node) bool {
	found := false
	n.Walk(func(m *xmldom.Node) bool {
		if fragment.IsHole(m) {
			found = true
		}
		return !found
	})
	return found
}
