package xcql

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
	"xcql/internal/xtime"
)

// Exported spellings of the intrinsic plan functions, so plan inspectors
// (EXPLAIN, the incremental compiler in internal/inc) can classify the
// access paths of a translated Query.Plan without duplicating the names.
const (
	// FnView is the CaQ access path: materialize the whole temporal view.
	FnView = fnView
	// FnRoot fetches the root filler's payload versions.
	FnRoot = fnRoot
	// FnFillers crosses the holes of a child step.
	FnFillers = fnFillers
	// FnByTSID jumps straight to every filler with a tsid (the index
	// plans' descendant step over the whole stream).
	FnByTSID = fnByTSID
	// FnIProj is the compiled interval projection e?[t1,t2].
	FnIProj = fnIProj
	// FnVProj is the compiled version projection e#[v1,v2].
	FnVProj = fnVProj
)

// WalkPlan visits every node of a plan (or AST) expression in preorder —
// the EXPLAIN walker, exported so other plan compilers (internal/inc)
// reuse the same traversal instead of growing their own.
func WalkPlan(e xq.Expr, fn func(xq.Expr)) { walkExpr(e, fn) }

// PlanLitString extracts the string literal at args[i] of a plan call, or
// "" — the EXPLAIN argument readers, exported alongside WalkPlan.
func PlanLitString(args []xq.Expr, i int) string { return litString(args, i) }

// PlanLitInt extracts the numeric literal at args[i] of a plan call, or 0.
func PlanLitInt(args []xq.Expr, i int) int { return litInt(args, i) }

// AccessArgs separates the arguments of an access call (FnFillers,
// FnByTSID) from the filter the translator pushed below it: args is the
// call as it would stand without one, pred the filter as a predicate over
// each node the call returns — nil when it carries none. A reader that
// fetches the call's fillers itself applies pred in the evaluator instead.
func AccessArgs(c *xq.Call) (args []xq.Expr, pred xq.Expr) {
	args, p := splitFilter(c.Args)
	if p == nil {
		return args, nil
	}
	return args, p.pred()
}

// StreamStore returns the fragment store registered under name on this
// query's runtime, or nil.
func (q *Query) StreamStore(name string) *fragment.Store { return q.rt.Store(name) }

// ReadFiller reads one filler's versions at the evaluation instant through
// the access path this query's plan reads through, charged to stats the
// way a full evaluation charges the same fetch. The incremental evaluator
// reads its indexed units with it: the by-tsid fetch, one filler at a time.
func (q *Query) ReadFiller(st *fragment.Store, fid int, at time.Time, stats *obs.EvalStats) []*xmldom.Node {
	return fragment.NewAccess(q.Mode.access(), fragment.Eval{At: at, Stats: stats}).Filler(st, fid, false, nil)
}

// UnitVar is the variable an incremental unit's body reads its own
// filler's versions from; EvalSubPlan binds it. No query can spell it.
const UnitVar = "\x00unit"

// PureCall reports that a call to name in this query's plan runs an xq
// builtin that reads nothing but its arguments — not a function the
// runtime registered under the same name, which may read anything.
func (q *Query) PureCall(name string) bool {
	q.rt.mu.RLock()
	_, shadowed := q.rt.funcs[name]
	q.rt.mu.RUnlock()
	return !shadowed && xq.PureBuiltin(name)
}

// RecordStats publishes s as this query's LastStats. The incremental
// evaluator assembles one EvalStats per fragment arrival out of many
// sub-plan evaluations and records the merged profile here, so
// Query.LastStats and EXPLAIN keep working in incremental mode.
func (q *Query) RecordStats(s *obs.EvalStats) { q.storeStats(s) }

// EvalSubPlan evaluates one sub-expression of this query's plan in a
// fresh environment at the evaluation instant, with $UnitVar bound to
// unit: its own budget built from lim, sequential and uncached execution
// (the pinned baseline strategy, byte-identical to every parallel/cached
// configuration — see TestDiffHarness), counters accumulated into stats
// (nil collects nothing). materialize runs the final hole-filling
// Materialize step on the result, exactly as Query.Eval does.
//
// horizon is the earliest instant after at at which the same evaluation
// over the same store can come out differently (xtime.Horizon): the zero
// time when the clock alone never changes it, at itself when the result
// is valid at this instant only.
//
// This is the incremental evaluator's workhorse: each partial-match unit
// re-evaluates only its own slice of the plan through the same engine
// code paths as a full evaluation, so unit outputs are byte-identical by
// construction. EvalSubPlan performs no admission control — one fragment
// arrival may evaluate many tiny units and each unit is already
// step/byte/deadline-bounded by lim.
func (q *Query) EvalSubPlan(e xq.Expr, unit xq.Sequence, at time.Time, lim Limits, stats *obs.EvalStats, materialize bool) (seq xq.Sequence, horizon time.Time, err error) {
	b := budget.New(context.Background(), lim)
	static := q.newStatic(at, b, stats, 1, nil, nil)
	static.Horizon = xtime.NewHorizon(at)
	defer func() {
		if p := recover(); p != nil {
			seq, horizon = nil, time.Time{}
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
	}()
	seq, err = xq.Eval(e, xq.NewContext(static).Bind(UnitVar, unit))
	if err != nil {
		return nil, time.Time{}, q.wrapResource(err)
	}
	if materialize {
		seq = materializeResult(seq, static)
	}
	horizon, _ = static.Horizon.Next()
	if stats != nil {
		// Query.eval copies the budget's totals into the stats at the
		// end; sub-plan evaluations instead accumulate, so one arrival's
		// stats sum its unit evaluations.
		steps, items, bytes := b.Used()
		atomic.AddInt64(&stats.Steps, steps)
		atomic.AddInt64(&stats.Items, items)
		atomic.AddInt64(&stats.BytesMaterialized, bytes)
	}
	return seq, horizon, nil
}
