package xcql

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/temporal"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
	"xcql/internal/xtime"
)

// Runtime ties the compiler to live fragment stores: it registers named
// streams, compiles XCQL queries under a chosen plan, and supplies the
// intrinsic functions the translated plans call.
type Runtime struct {
	mu     sync.RWMutex
	stores map[string]*fragment.Store
	funcs  map[string]xq.Func
	docs   map[string]*xmldom.Node

	// admission control: maxEvals > 0 bounds concurrent evaluations;
	// excess attempts are rejected with *OverloadError instead of
	// queuing unboundedly.
	maxEvals    int
	activeEvals int

	// trace is the optional span sink: nil (the default) disables
	// tracing entirely, and the disabled path neither allocates nor
	// reads the clock beyond the always-on phase timings.
	trace obs.TraceSink

	// parallelism and cache are the runtime-wide execution defaults,
	// overridable per query (Query.WithParallelism / Query.WithCache).
	// parallelism <= 1 means sequential; a nil cache disables caching.
	parallelism int
	cache       *fragment.Cache
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
	rt.funcs[name] = f
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

// SetParallelism sets the runtime-wide default hole-resolution
// parallelism: n > 1 fans independent hole resolutions out over n
// workers during reconstruction and result materialization; n <= 1 (the
// default) is sequential. Results are byte-identical either way.
// Queries override it with WithParallelism.
func (rt *Runtime) SetParallelism(n int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if n < 0 {
		n = 0
	}
	rt.parallelism = n
}

// SetCache installs a runtime-wide filler materialization cache bounded
// to size entries; size <= 0 removes it. The cache is shared by every
// query on this runtime (continuous queries warm it for each other) and
// invalidates itself on store ingest. Queries override it with
// WithCache.
func (rt *Runtime) SetCache(size int) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if size <= 0 {
		rt.cache = nil
		return
	}
	rt.cache = fragment.NewCache(size)
}

// Cache returns the runtime-wide cache installed by SetCache, or nil.
func (rt *Runtime) Cache() *fragment.Cache {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.cache
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
	// Plan is the translated engine expression actually evaluated.
	Plan xq.Expr
	// Limits bounds every evaluation of this query: steps, recursion
	// depth, cardinality, bytes and wall time. The zero value is
	// unlimited except for the recursion-depth default. Set it before
	// sharing the query across goroutines.
	Limits Limits

	// compile-phase wall times, copied into every evaluation's stats.
	parseTime     time.Duration
	translateTime time.Duration

	// per-query execution options; unset falls back to the runtime-wide
	// defaults (Runtime.SetParallelism / Runtime.SetCache).
	parallelism    int
	parallelismSet bool
	cache          *fragment.Cache
	cacheSet       bool

	statsMu   sync.Mutex
	lastStats *obs.EvalStats
}

// WithParallelism overrides the runtime's default hole-resolution
// parallelism for this query: n > 1 fans hole resolution out over n
// workers, n <= 1 forces sequential execution even when the runtime
// default is parallel. Returns q for chaining; set it before sharing the
// query across goroutines.
func (q *Query) WithParallelism(n int) *Query {
	if n < 0 {
		n = 0
	}
	q.parallelism = n
	q.parallelismSet = true
	return q
}

// WithCache gives this query its own filler materialization cache
// bounded to size entries, overriding the runtime-wide cache; size <= 0
// disables caching for this query even when the runtime has a cache.
// Returns q for chaining; set it before sharing the query across
// goroutines.
func (q *Query) WithCache(size int) *Query {
	if size <= 0 {
		q.cache = nil
	} else {
		q.cache = fragment.NewCache(size)
	}
	q.cacheSet = true
	return q
}

// QueryCache returns the cache this query's evaluations use: its own
// (WithCache), else the runtime-wide one. Nil means caching is off.
func (q *Query) QueryCache() *fragment.Cache {
	if q.cacheSet {
		return q.cache
	}
	return q.rt.Cache()
}

// Parallelism returns the worker count this query's evaluations use
// (0 or 1 means sequential).
func (q *Query) Parallelism() int {
	if q.parallelismSet {
		return q.parallelism
	}
	q.rt.mu.RLock()
	defer q.rt.mu.RUnlock()
	return q.rt.parallelism
}

// LastStats returns a snapshot of the cost counters from the most recent
// evaluation of this query (last-writer-wins under concurrent use). The
// zero value is returned before the first evaluation. Stats are recorded
// even when the evaluation failed, so a budget trip still shows how far
// it got.
func (q *Query) LastStats() obs.EvalStats {
	q.statsMu.Lock()
	defer q.statsMu.Unlock()
	if q.lastStats == nil {
		return obs.EvalStats{}
	}
	return *q.lastStats
}

func (q *Query) storeStats(s *obs.EvalStats) {
	q.statsMu.Lock()
	q.lastStats = s
	q.statsMu.Unlock()
}

// Compile parses src and translates it for the given mode against the
// streams currently registered.
func (rt *Runtime) Compile(src string, mode Mode) (*Query, error) {
	parseStart := time.Now()
	ast, err := xq.Parse(src)
	parseTime := time.Since(parseStart)
	if err != nil {
		return nil, err
	}
	trStart := time.Now()
	plan, err := Compile(ast, mode, rt.Structures())
	translateTime := time.Since(trStart)
	if err != nil {
		return nil, err
	}
	if sink := rt.traceSink(); sink != nil {
		sink.Span("parse", src, parseStart, parseTime)
		sink.Span("translate", mode.String(), trStart, translateTime)
	}
	return &Query{
		rt: rt, Mode: mode, Source: src, AST: ast, Plan: plan,
		parseTime: parseTime, translateTime: translateTime,
	}, nil
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

// EvalRawContext is EvalRaw under a context and the query's Limits.
func (q *Query) EvalRawContext(ctx context.Context, at time.Time) (xq.Sequence, error) {
	return q.eval(ctx, at, q.Limits, false)
}

// eval is the engine boundary: admission control, budget construction,
// plan evaluation, result materialization, and panic containment. Any
// panic escaping the evaluator — a budget trip from a non-error-returning
// walk, or a genuine bug — is converted into an *EvalError here instead
// of killing the process and every attached continuous query.
func (q *Query) eval(ctx context.Context, at time.Time, lim Limits, materialize bool) (seq xq.Sequence, err error) {
	if err := q.rt.admit(); err != nil {
		return nil, err
	}
	defer q.rt.release()
	par := q.Parallelism()
	cache := q.QueryCache()
	stats := &obs.EvalStats{
		Plan:          q.Mode.String(),
		ParseTime:     q.parseTime,
		TranslateTime: q.translateTime,
		Parallelism:   par,
	}
	sink := q.rt.traceSink()
	b := budget.New(ctx, lim)
	var wait *obs.Histogram
	if par > 1 {
		wait = obs.NewHistogram()
	}
	static := q.rt.newStatic(at, b, stats, par, cache, wait, q.Mode)
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			seq = nil
			if re, ok := p.(*budget.ResourceError); ok {
				err = &EvalError{Query: q.Source, Mode: q.Mode, Err: re}
			} else {
				err = &EvalError{
					Query: q.Source,
					Mode:  q.Mode,
					Err:   fmt.Errorf("panic: %v", p),
					Stack: debug.Stack(),
				}
			}
		}
		// stats are recorded even on failure: a tripped budget still
		// shows how far the evaluation got before it was cut off.
		stats.Steps, stats.Items, stats.BytesMaterialized = b.Used()
		stats.ParallelWait = wait.Snapshot()
		stats.TotalTime = time.Since(start)
		q.storeStats(stats)
		if sink != nil {
			sink.Span("eval", q.Mode.String(), start, stats.TotalTime)
		}
	}()
	execStart := time.Now()
	seq, err = xq.Eval(q.Plan, xq.NewContext(static))
	stats.ExecTime = time.Since(execStart)
	if sink != nil {
		sink.Span("execute", q.Mode.String(), execStart, stats.ExecTime)
	}
	if err != nil {
		return nil, q.wrapResource(err)
	}
	if materialize {
		matStart := time.Now()
		seq = q.rt.materializeResult(seq, static, q.Mode)
		stats.MaterializeTime = time.Since(matStart)
		if sink != nil {
			sink.Span("materialize", q.Mode.String(), matStart, stats.MaterializeTime)
		}
	}
	return seq, nil
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

// newStatic assembles the evaluation environment: intrinsics, user
// functions, the resolvers, the evaluation's resource budget, and the
// parallelism/cache execution options. Under QaCPlusPlus the root,
// projection and hole-materialization paths are swapped for their
// label-index-served variants, so a QaC++ evaluation never scans the
// fragment log and never resolves a hole.
func (rt *Runtime) newStatic(at time.Time, b *budget.Budget, s *obs.EvalStats, par int, cache *fragment.Cache, wait *obs.Histogram, mode Mode) *xq.Static {
	funcs := map[string]xq.Func{
		fnView:      rt.intrView,
		fnRoot:      rt.intrRoot,
		fnFillers:   rt.intrFillers,
		fnFillersB:  rt.intrFillersBatch,
		fnByTSID:    rt.intrByTSID,
		fnIProj:     rt.intrIProj,
		fnVProj:     rt.intrVProj,
		fnByLabel:   rt.intrByLabel,
		fnLabelKids: rt.intrLabelKids,
	}
	holes := temporal.BudgetResolver(b, rt.combinedResolver(at, s, cache))
	if mode == QaCPlusPlus {
		funcs[fnRoot] = rt.intrRootLabeled
		funcs[fnIProj] = rt.intrIProjLabeled
		funcs[fnVProj] = rt.intrVProjLabeled
		holes = temporal.BudgetResolver(b, rt.labelResolver(at, s))
	}
	rt.mu.RLock()
	for name, f := range rt.funcs {
		funcs[name] = f
	}
	rt.mu.RUnlock()
	static := &xq.Static{
		Now:   at,
		Funcs: funcs,
		Doc: func(uri string) (*xmldom.Node, error) {
			rt.mu.RLock()
			defer rt.mu.RUnlock()
			if d, ok := rt.docs[uri]; ok {
				return d, nil
			}
			return nil, fmt.Errorf("xcql: unknown document %q", uri)
		},
		Holes:       holes,
		Budget:      b,
		Stats:       s,
		Parallelism: par,
		Cache:       cache,
		Wait:        wait,
	}
	static.Stream = func(name string) (xq.Sequence, error) {
		// uncompiled stream() access sees the materialized view
		return rt.intrViewNamed(name, static)
	}
	return static
}

// combinedResolver resolves hole ids across all registered stores; filler
// ids are unique within a stream, and servers are expected to keep id
// spaces disjoint across streams they co-publish (ours do). Each store
// tried counts as one lookup pass in the stats (nil s collects nothing);
// with a cache, a hit replaces the pass with a CacheHits count.
func (rt *Runtime) combinedResolver(at time.Time, s *obs.EvalStats, cache *fragment.Cache) temporal.HoleResolver {
	return func(holeID int) []*xmldom.Node {
		s.AddHoles(1)
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		for _, st := range rt.stores {
			els, hit := cache.GetFillers(st, holeID, at)
			if hit {
				s.AddCacheHits(1)
			} else {
				if cache != nil {
					s.AddCacheMisses(1)
				}
				s.AddFillers(st.LookupCost(len(els)))
				s.AddNodes(len(els))
			}
			if len(els) > 0 {
				return els
			}
		}
		return nil
	}
}

// labelResolver resolves hole ids across all registered stores through
// their label indexes: no log pass ever runs and no hole is counted as
// resolved — each store tried charges one label-range lookup instead.
// This is the QaC++ materialization path; HolesResolved stays 0 by
// construction.
func (rt *Runtime) labelResolver(at time.Time, s *obs.EvalStats) temporal.HoleResolver {
	return func(holeID int) []*xmldom.Node {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		for _, st := range rt.stores {
			els := st.Labels().Fillers(holeID, at)
			s.AddLabelRangeLookup(len(els))
			s.AddNodes(len(els))
			if len(els) > 0 {
				return els
			}
		}
		return nil
	}
}

func (rt *Runtime) storeOrErr(name string) (*fragment.Store, error) {
	st := rt.Store(name)
	if st == nil {
		return nil, fmt.Errorf("xcql: stream %q is not registered", name)
	}
	return st, nil
}

// --- intrinsics -----------------------------------------------------------

func argString(args []xq.Sequence, i int) string {
	if i >= len(args) || len(args[i]) == 0 {
		return ""
	}
	return xq.StringValue(args[i][0])
}

// chargeNodes meters the output of a store walk (get_fillers and the
// tsid scan): cardinality plus the tree bytes of every resolved filler
// version. This is what bounds the QaC/QaC+ access paths.
func chargeNodes(b *budget.Budget, seq xq.Sequence) error {
	if b == nil {
		return nil
	}
	if err := b.AddItems(len(seq)); err != nil {
		return err
	}
	var n int64
	for _, it := range seq {
		if nd, ok := it.(*xmldom.Node); ok {
			n += int64(nd.TreeSize())
		}
	}
	return b.AddBytes(n)
}

func (rt *Runtime) intrViewNamed(name string, static *xq.Static) (xq.Sequence, error) {
	st, err := rt.storeOrErr(name)
	if err != nil {
		return nil, err
	}
	// CaQ's whole-document materialization is metered: an oversized view
	// aborts mid-reconstruction instead of exhausting memory first
	view, err := temporal.TemporalizeWith(st, static.Now, temporal.TemporalizeOptions{
		Budget:      static.Budget,
		Stats:       static.Stats,
		Cache:       static.Cache,
		Parallelism: static.Parallelism,
		Wait:        static.Wait,
	})
	if err != nil {
		return nil, err
	}
	doc := xmldom.NewDocument()
	doc.AppendChild(view)
	return xq.Singleton(doc), nil
}

func (rt *Runtime) intrView(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	return rt.intrViewNamed(argString(args, 0), ctx.Static)
}

func (rt *Runtime) intrRoot(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	st, err := rt.storeOrErr(argString(args, 0))
	if err != nil {
		return nil, err
	}
	els := st.GetFillers(fragment.RootFillerID, ctx.Static.Now)
	ctx.Static.Stats.AddFillers(st.LookupCost(len(els)))
	ctx.Static.Stats.AddNodes(len(els))
	if len(els) == 0 {
		return nil, nil
	}
	// only the current version of the root document is the stream's face
	doc := xmldom.NewDocument()
	doc.AppendChild(els[len(els)-1])
	return xq.Singleton(doc), nil
}

// intrRootLabeled is the QaC++ root access: the root filler's versions
// come from the label index's version groups, so the call costs one
// label-range lookup and zero log scans (intrRoot's pass would cost a
// whole-log scan on the scan-mode store).
func (rt *Runtime) intrRootLabeled(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	st, err := rt.storeOrErr(argString(args, 0))
	if err != nil {
		return nil, err
	}
	els := st.Labels().Fillers(fragment.RootFillerID, ctx.Static.Now)
	ctx.Static.Stats.AddLabelRangeLookup(len(els))
	ctx.Static.Stats.AddNodes(len(els))
	if len(els) == 0 {
		return nil, nil
	}
	doc := xmldom.NewDocument()
	doc.AppendChild(els[len(els)-1])
	return xq.Singleton(doc), nil
}

// intrFillers is get_fillers of §5: for every hole with the given tsid in
// the input nodes, return the versions of its fillers.
//
// The per-hole store passes are independent of each other, so this is
// the QaC fan-out point: with Parallelism > 1 the distinct ids resolve
// on the worker pool and the output is assembled from the memo in the
// original order — the sequential concatenation order, byte for byte.
func (rt *Runtime) intrFillers(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("xcql: %s wants (nodes, stream, tsid)", fnFillers)
	}
	st, err := rt.storeOrErr(argString(args, 1))
	if err != nil {
		return nil, err
	}
	if len(args[2]) == 0 {
		return nil, fmt.Errorf("xcql: empty tsid argument")
	}
	tsid := int(xq.NumberValue(args[2][0]))
	// collect the ordered work list: inline (already materialized)
	// elements interleave with hole ids, and each filler id resolves once
	// per call — several versions of the same container carry the same
	// holes, and a child is one element, not one element per parent
	// version (matches Temporalize's rule)
	type item struct {
		inline *xmldom.Node
		id     int
		isID   bool
	}
	var order []item
	var ids []int
	resolved := make(map[int]bool)
	for _, n := range xq.Nodes(args[0]) {
		holeIDs := fragment.HoleIDs(n, tsid)
		if len(holeIDs) == 0 {
			// The node may already be materialized (e.g. the output of an
			// interval projection, which resolves holes while clipping);
			// the versions then sit inline as name-matched children.
			if tag := st.Structure().ByID(tsid); tag != nil {
				for _, c := range n.ChildElements(tag.Name) {
					order = append(order, item{inline: c})
				}
			}
			continue
		}
		for _, id := range holeIDs {
			if resolved[id] {
				continue
			}
			resolved[id] = true
			ids = append(ids, id)
			order = append(order, item{id: id, isID: true})
		}
	}
	// one store pass per hole id: this is the per-hole cost the QaC plan
	// pays and the batched QaC+ flavour avoids
	memo, err := rt.resolvePerHole(ctx.Static, st, ids)
	if err != nil {
		return nil, err
	}
	var out xq.Sequence
	for _, it := range order {
		if !it.isID {
			out = append(out, it.inline)
			continue
		}
		for _, el := range memo[it.id] {
			out = append(out, el)
		}
	}
	if err := chargeNodes(ctx.Static.Budget, out); err != nil {
		return nil, err
	}
	return out, nil
}

// resolvePerHole issues one get_fillers pass per id — sequentially, or
// on the worker pool when the evaluation's Parallelism allows. Every
// resolution charges one budget step (cancellation poll), one hole and
// either the lookup-pass cost (store hit) or a cache hit.
func (rt *Runtime) resolvePerHole(static *xq.Static, st *fragment.Store, ids []int) (map[int][]*xmldom.Node, error) {
	resolveCharged := func(id int) []*xmldom.Node {
		els, hit := static.Cache.GetFillers(st, id, static.Now)
		static.Stats.AddHoles(1)
		if hit {
			static.Stats.AddCacheHits(1)
		} else {
			if static.Cache != nil {
				static.Stats.AddCacheMisses(1)
			}
			static.Stats.AddFillers(st.LookupCost(len(els)))
			static.Stats.AddNodes(len(els))
		}
		return els
	}
	if static.Parallelism > 1 && len(ids) > 1 {
		resolve := func(id int) []*xmldom.Node {
			// MustStep: workers cannot return errors; the pool re-raises
			// the budget panic on the caller, where eval() contains it
			static.Budget.MustStep()
			return resolveCharged(id)
		}
		return temporal.ResolveIDs(ids, resolve, static.Parallelism, static.Wait, static.Stats), nil
	}
	memo := make(map[int][]*xmldom.Node, len(ids))
	for _, id := range ids {
		if err := static.Budget.Step(); err != nil {
			return nil, err
		}
		memo[id] = resolveCharged(id)
	}
	return memo, nil
}

// intrFillersBatch is the QaC+ flavour of get_fillers: it collects every
// matching hole id across the input nodes and resolves the whole set in
// one pass over the store (the unnested/join get_fillers of §8).
func (rt *Runtime) intrFillersBatch(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("xcql: %s wants (nodes, stream, tsid)", fnFillersB)
	}
	st, err := rt.storeOrErr(argString(args, 1))
	if err != nil {
		return nil, err
	}
	if len(args[2]) == 0 {
		return nil, fmt.Errorf("xcql: empty tsid argument")
	}
	tsid := int(xq.NumberValue(args[2][0]))
	var ids []int
	seen := make(map[int]bool)
	var out xq.Sequence
	for _, n := range xq.Nodes(args[0]) {
		holeIDs := fragment.HoleIDs(n, tsid)
		if len(holeIDs) == 0 {
			// materialized input: versions sit inline (see intrFillers)
			if tag := st.Structure().ByID(tsid); tag != nil {
				for _, c := range n.ChildElements(tag.Name) {
					out = append(out, c)
				}
			}
			continue
		}
		for _, id := range holeIDs {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	if len(ids) > 0 {
		// the whole id set resolves in ONE pass over the store — the
		// unnested get_fillers of §8 that separates QaC+ from QaC. With a
		// cache, resident ids are served from memory and only the misses
		// share that one pass (Cache.GetFillersList); scanned is then the
		// miss pass's cost, or the full pass on a nil cache.
		cache := ctx.Static.Cache
		els, hits, misses, scanned, built := cache.GetFillersList(st, ids, ctx.Static.Now)
		ctx.Static.Stats.AddHoles(len(ids))
		ctx.Static.Stats.AddFillers(scanned)
		ctx.Static.Stats.AddNodes(built)
		if cache != nil {
			ctx.Static.Stats.AddCacheHits(hits)
			ctx.Static.Stats.AddCacheMisses(misses)
		}
		for _, el := range els {
			out = append(out, el)
		}
	}
	if err := chargeNodes(ctx.Static.Budget, out); err != nil {
		return nil, err
	}
	return out, nil
}

// intrByTSID is the QaC+ access path: all filler versions whose tsid is in
// the given set, fetched straight from the tsid index (one predicate scan
// in the paper's cost model) without touching any other document level.
func (rt *Runtime) intrByTSID(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("xcql: %s wants (stream, tsid…)", fnByTSID)
	}
	st, err := rt.storeOrErr(argString(args, 0))
	if err != nil {
		return nil, err
	}
	var out xq.Sequence
	for _, a := range args[1:] {
		if len(a) == 0 {
			continue
		}
		tsid := int(xq.NumberValue(a[0]))
		cache := ctx.Static.Cache
		els, hit := cache.GetFillersByTSID(st, tsid, ctx.Static.Now)
		ctx.Static.Stats.AddTSIDLookup(len(els))
		if hit {
			ctx.Static.Stats.AddCacheHits(1)
		} else {
			if cache != nil {
				ctx.Static.Stats.AddCacheMisses(1)
			}
			ctx.Static.Stats.AddFillers(st.LookupCost(len(els)))
			ctx.Static.Stats.AddNodes(len(els))
		}
		for _, el := range els {
			out = append(out, el)
		}
	}
	if err := chargeNodes(ctx.Static.Budget, out); err != nil {
		return nil, err
	}
	return out, nil
}

// intrLabelKids is the QaC++ flavour of the batched get_fillers: the
// whole hole-id set of a child step is answered from the label index in
// input order — identical output to intrFillersBatch, zero log scans,
// zero holes resolved. The batch charges one label-range lookup.
func (rt *Runtime) intrLabelKids(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	if len(args) != 3 {
		return nil, fmt.Errorf("xcql: %s wants (nodes, stream, tsid)", fnLabelKids)
	}
	st, err := rt.storeOrErr(argString(args, 1))
	if err != nil {
		return nil, err
	}
	if len(args[2]) == 0 {
		return nil, fmt.Errorf("xcql: empty tsid argument")
	}
	tsid := int(xq.NumberValue(args[2][0]))
	var ids []int
	seen := make(map[int]bool)
	var out xq.Sequence
	for _, n := range xq.Nodes(args[0]) {
		holeIDs := fragment.HoleIDs(n, tsid)
		if len(holeIDs) == 0 {
			// materialized input: versions sit inline (see intrFillers)
			if tag := st.Structure().ByID(tsid); tag != nil {
				for _, c := range n.ChildElements(tag.Name) {
					out = append(out, c)
				}
			}
			continue
		}
		for _, id := range holeIDs {
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
	}
	if len(ids) > 0 {
		els := st.Labels().FillersList(ids, ctx.Static.Now)
		ctx.Static.Stats.AddLabelRangeLookup(len(els))
		ctx.Static.Stats.AddNodes(len(els))
		for _, el := range els {
			out = append(out, el)
		}
	}
	if err := chargeNodes(ctx.Static.Budget, out); err != nil {
		return nil, err
	}
	return out, nil
}

// intrByLabel is the QaC++ whole-stream descendant access: all filler
// versions under the given tsids, grouped by filler id ascending —
// byte-identical to intrByTSID — served from the label index with zero
// log scans.
func (rt *Runtime) intrByLabel(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	if len(args) < 2 {
		return nil, fmt.Errorf("xcql: %s wants (stream, tsid…)", fnByLabel)
	}
	st, err := rt.storeOrErr(argString(args, 0))
	if err != nil {
		return nil, err
	}
	idx := st.Labels()
	var out xq.Sequence
	for _, a := range args[1:] {
		if len(a) == 0 {
			continue
		}
		tsid := int(xq.NumberValue(a[0]))
		els := idx.FillersByTSID(tsid, ctx.Static.Now)
		ctx.Static.Stats.AddLabelRangeLookup(len(els))
		ctx.Static.Stats.AddNodes(len(els))
		for _, el := range els {
			out = append(out, el)
		}
	}
	if err := chargeNodes(ctx.Static.Budget, out); err != nil {
		return nil, err
	}
	return out, nil
}

func (rt *Runtime) intrIProj(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	return rt.iproj(ctx, args, false)
}

// intrIProjLabeled is the QaC++ interval projection: hole crossing
// during clipping resolves through the label index.
func (rt *Runtime) intrIProjLabeled(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	return rt.iproj(ctx, args, true)
}

// projResolver picks the hole resolver a projection intrinsic slices
// with: the observed store resolver (one log pass per hole), or the
// label-index resolver under QaC++.
func projResolver(st *fragment.Store, at time.Time, s *obs.EvalStats, b *budget.Budget, labeled bool) temporal.HoleResolver {
	if labeled {
		return temporal.BudgetResolver(b, temporal.LabelResolver(st.Labels(), at, s))
	}
	return temporal.BudgetResolver(b, temporal.ObservedStoreResolver(st, at, s))
}

func (rt *Runtime) iproj(ctx *xq.Context, args []xq.Sequence, labeled bool) (xq.Sequence, error) {
	if len(args) != 4 {
		return nil, fmt.Errorf("xcql: %s wants (nodes, tb, te, stream)", fnIProj)
	}
	st, err := rt.storeOrErr(argString(args, 3))
	if err != nil {
		return nil, err
	}
	from, ok := endpointDateTime(args[1])
	if !ok {
		return nil, fmt.Errorf("xcql: interval start is not a dateTime")
	}
	to, ok := endpointDateTime(args[2])
	if !ok {
		return nil, fmt.Errorf("xcql: interval end is not a dateTime")
	}
	window := xtime.NewInterval(from, to)
	at := ctx.Static.Now
	nodes := xq.Nodes(args[0])
	resolve := projResolver(st, at, ctx.Static.Stats, ctx.Static.Budget, labeled)
	out := xq.FromNodes(temporal.IntervalProjection(nodes, window, at, resolve))
	if err := ctx.Static.Budget.AddItems(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

func endpointDateTime(seq xq.Sequence) (xtime.DateTime, bool) {
	if len(seq) == 0 {
		return xtime.DateTime{}, false
	}
	return xq.DateTimeValue(xq.Atomize(seq)[0])
}

func (rt *Runtime) intrVProj(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	return rt.vproj(ctx, args, false)
}

// intrVProjLabeled is the QaC++ version projection: hole crossing
// during version slicing resolves through the label index.
func (rt *Runtime) intrVProjLabeled(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	return rt.vproj(ctx, args, true)
}

func (rt *Runtime) vproj(ctx *xq.Context, args []xq.Sequence, labeled bool) (xq.Sequence, error) {
	if len(args) != 4 {
		return nil, fmt.Errorf("xcql: %s wants (nodes, vb, ve, stream)", fnVProj)
	}
	st, err := rt.storeOrErr(argString(args, 3))
	if err != nil {
		return nil, err
	}
	window := xtime.VersionInterval{}
	var ok bool
	window.From, window.FromLast, ok = endpointVersion(args[1])
	if !ok {
		return nil, fmt.Errorf("xcql: version start is not a number")
	}
	window.To, window.ToLast, ok = endpointVersion(args[2])
	if !ok {
		return nil, fmt.Errorf("xcql: version end is not a number")
	}
	at := ctx.Static.Now
	nodes := xq.Nodes(args[0])
	resolve := projResolver(st, at, ctx.Static.Stats, ctx.Static.Budget, labeled)
	out := xq.FromNodes(temporal.VersionProjection(nodes, window, at, resolve))
	if err := ctx.Static.Budget.AddItems(len(out)); err != nil {
		return nil, err
	}
	return out, nil
}

func endpointVersion(seq xq.Sequence) (n int, last, ok bool) {
	if len(seq) == 0 {
		return 0, false, false
	}
	it := xq.Atomize(seq)[0]
	if s, isStr := it.(string); isStr && s == "last" {
		return 0, true, true
	}
	f := xq.NumberValue(it)
	if math.IsNaN(f) {
		return 0, false, false
	}
	return int(f), false, true
}

// materializeResult resolves any holes left in result nodes (the final
// Materialize of Figure 2) so every caller sees hole-free temporal XML.
// Filling is copy-on-write (temporal.FillHoles): only the spine above a
// hole is rebuilt, hole-free subtrees stay shared with the store. The
// walk itself is unmetered; the resolver charges the budget, so an attack
// that hides its bulk behind holes in the result still trips
// mid-materialization (the panic is contained by Query.eval).
//
// With Parallelism > 1, the transitive hole closure of every holed
// result item is prefetched on the worker pool first (phase A) and the
// sequential fill below reads the memo (phase B), so the output stays
// byte-identical to sequential materialization. The memo resolves each
// id once for the whole result; the sequential path deliberately keeps
// its one-seen-map-per-item charging (the pre-existing behaviour), so
// budget/stats totals — not results — may differ between the two.
// Under QaCPlusPlus the resolver is the label resolver and — because
// every result item fills independently (each item carries its own
// seen map) while the output order is fixed by the items' positions,
// which the labels already determined — the per-item assembly itself
// runs on the worker pool when Parallelism allows. This is the
// label-ordered parallel assembly PR 5 deliberately kept sequential:
// without labels, output order was only derivable by walking holes.
func (rt *Runtime) materializeResult(seq xq.Sequence, static *xq.Static, mode Mode) xq.Sequence {
	s := static.Stats
	if mode == QaCPlusPlus {
		resolver := temporal.BudgetResolver(static.Budget, rt.labelResolver(static.Now, s))
		out := make(xq.Sequence, len(seq))
		fill := func(i int) {
			it := seq[i]
			if n, ok := it.(*xmldom.Node); ok && hasHoles(n) {
				out[i] = temporal.FillHoles(resolver, n, make(map[int]bool), nil, s)
			} else {
				out[i] = it
			}
		}
		if static.Parallelism > 1 && len(seq) > 1 {
			temporal.AssembleParallel(len(seq), static.Parallelism, fill, static.Wait, s)
		} else {
			for i := range seq {
				fill(i)
			}
		}
		return out
	}
	resolver := temporal.BudgetResolver(static.Budget, rt.combinedResolver(static.Now, s, static.Cache))
	if static.Parallelism > 1 {
		var holed []*xmldom.Node
		for _, it := range seq {
			if n, ok := it.(*xmldom.Node); ok && hasHoles(n) {
				holed = append(holed, n)
			}
		}
		resolver = temporal.Prefetch(holed, resolver, static.Parallelism, static.Wait, s)
	}
	out := make(xq.Sequence, 0, len(seq))
	for _, it := range seq {
		n, ok := it.(*xmldom.Node)
		if !ok || !hasHoles(n) {
			out = append(out, it)
			continue
		}
		out = append(out, temporal.FillHoles(resolver, n, make(map[int]bool), nil, s))
	}
	return out
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
