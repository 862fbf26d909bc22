package xcql

import (
	"context"
	"sync/atomic"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xq"
	"xcql/internal/xtime"
)

// WalkPlan visits every node of a plan (or AST) expression in preorder —
// the EXPLAIN walker, exported so other plan compilers (internal/inc)
// reuse the same traversal instead of growing their own.
func WalkPlan(e xq.Expr, fn func(xq.Expr)) { walkExpr(e, fn) }

// StreamStore returns the fragment store registered under name on this
// query's runtime, or nil.
func (q *Query) StreamStore(name string) *fragment.Store { return q.rt.Store(name) }

// UnitVar is the variable an incremental unit's body reads its own
// filler's versions from; UnitEval.Eval binds it. No query can spell it.
const UnitVar = "\x00unit"

// PureCall reports that a call to name in this query's plan runs an xq
// builtin that reads nothing but its arguments — not a function the
// runtime registered under the same name, which may read anything.
func (q *Query) PureCall(name string) bool {
	_, shadowed := q.rt.funcTable()[name]
	return !shadowed && xq.PureBuiltin(name)
}

// Admit takes one of the runtime's evaluation slots (SetMaxConcurrentEvals)
// for an evaluation the caller assembles itself — an incremental engine's
// arrival, however many unit evaluations it runs — and fails past the
// bound with *OverloadError, as Eval does. Release gives the slot back.
func (q *Query) Admit() error { return q.rt.admit() }

// Release returns the evaluation slot Admit took.
func (q *Query) Release() { q.rt.release() }

// RecordStats publishes a copy of s as this query's LastStats. The
// incremental evaluator assembles one EvalStats per fragment arrival out of
// many unit evaluations and records the merged profile here, so
// Query.LastStats and EXPLAIN keep working for standing queries; s stays the
// caller's, to count the next arrival in.
func (q *Query) RecordStats(s *obs.EvalStats) { q.storeStats(s) }

// UnitEval is the evaluation frame of one incremental engine: the static
// environment a unit evaluates in — function table, access path, hole
// resolver, budget, horizon, the context $UnitVar is bound in — built once
// (Query.NewUnitEval) and re-armed by every Eval, so that what a unit
// evaluation allocates is what it reads and returns. One evaluation at a
// time; the engine's lock sees to that.
type UnitEval struct {
	q       *Query
	static  *xq.Static
	budget  budget.Budget
	horizon xtime.Horizon
	ctx     *xq.Context // $UnitVar bound, rebound per unit
	fold    foldState
	stats   obs.EvalStats // a term frame's counters (fold.go)
}

// NewUnitEval builds the frame of an engine over this query's plan.
func (q *Query) NewUnitEval() *UnitEval {
	u := &UnitEval{q: q}
	u.static = q.newStatic(fragment.Eval{Budget: &u.budget})
	u.static.Horizon = &u.horizon
	u.ctx = xq.NewContext(u.static).Bind(foldVar, xq.Sequence{u}).Bind(UnitVar, nil)
	return u
}

// arm readies the frame for an evaluation at the instant at under a budget
// built from lim, its counters charged to stats.
func (u *UnitEval) arm(at time.Time, lim Limits, stats *obs.EvalStats) {
	u.budget.Reset(context.Background(), lim)
	u.static.Now, u.static.Stats, u.static.Funcs = at, stats, u.q.rt.funcTable()
	u.static.Access.Arm(fragment.Eval{At: at, Stats: stats, Budget: &u.budget})
}

// Eval evaluates one sub-expression of the query's plan at the evaluation
// instant under its own budget built from lim, counters accumulated into
// stats (nil collects nothing). With st set the unit is one filler's:
// $UnitVar is bound to the versions of filler fid that keep lets through
// (nil keeps all), read through the plan's access path and charged the way
// a full evaluation charges the same fetch — the by-tsid read, one filler
// at a time, every visible version examined whatever keep turns away.
// materialize runs the final hole-filling Materialize step on the result,
// as Query.Eval does.
//
// horizon is the earliest instant after at at which the same evaluation
// over the same store can come out differently (xtime.Horizon): the zero
// time when the clock alone never changes it, at itself when the result
// is valid at this instant only.
//
// With each set, e runs once per version read instead, $UnitVar bound to
// that version alone, and each receives every version's output and horizon
// in read order; Eval then returns neither. An incremental unit's body
// distributes over any partition of its input, so the outputs concatenate
// to the output over all the versions, and a caller that keeps them apart
// can re-run one version without the others.
//
// This is the incremental evaluator's workhorse: each partial-match unit
// re-evaluates only its own slice of the plan through the same engine
// code paths as a full evaluation, so unit outputs are byte-identical by
// construction. Admission is the caller's (Admit): one fragment arrival
// may evaluate many tiny units under one slot, each already
// step/byte/deadline-bounded by lim. Everything an evaluation leaves in
// the frame — a budget trip's panic included — the next one's arming
// overwrites.
func (u *UnitEval) Eval(e xq.Expr, st *fragment.Store, fid int, keep fragment.Filter, each func(xq.Sequence, time.Time),
	at time.Time, lim Limits, stats *obs.EvalStats, materialize bool) (seq xq.Sequence, horizon time.Time, err error) {
	q, static := u.q, u.static
	u.arm(at, lim, stats)
	defer func() {
		u.ctx.Rebind(nil)
		if p := recover(); p != nil {
			seq, horizon, err = nil, time.Time{}, q.contained(p)
		}
	}()
	var bound xq.Sequence
	if st != nil {
		// the budget meters the unit's own read as it meters the by-tsid
		// read of a full evaluation
		els, _ := static.Access.Read(st, fragment.Read{Source: fragment.FromFiller, ID: fid, Keep: keep})
		if bound, err = chargeNodes(&u.budget, els, 0); err != nil {
			return nil, time.Time{}, q.wrapResource(err)
		}
	}
	if each == nil {
		seq, horizon, err = u.run(e, bound, at, materialize)
	} else {
		for i := range bound {
			var one xq.Sequence
			var h time.Time
			if one, h, err = u.run(e, bound[i:i+1:i+1], at, materialize); err != nil {
				break
			}
			each(one, h)
		}
	}
	if err != nil {
		return nil, time.Time{}, err
	}
	if stats != nil {
		// Query.eval copies the budget's totals into the stats at the
		// end; unit evaluations instead accumulate, so one arrival's
		// stats sum its unit evaluations.
		steps, items, bytes := u.budget.Used()
		atomic.AddInt64(&stats.Steps, steps)
		atomic.AddInt64(&stats.Items, items)
		atomic.AddInt64(&stats.BytesMaterialized, bytes)
	}
	return seq, horizon, nil
}

// run evaluates e once with $UnitVar bound to bound, and the horizon of
// that one evaluation.
func (u *UnitEval) run(e xq.Expr, bound xq.Sequence, at time.Time, materialize bool) (xq.Sequence, time.Time, error) {
	u.horizon.Reset(at)
	u.ctx.Rebind(bound)
	seq, err := xq.Eval(e, u.ctx)
	if err != nil {
		return nil, time.Time{}, u.q.wrapResource(err)
	}
	if materialize {
		seq = materializeResult(seq, u.static)
	}
	horizon, _ := u.horizon.Next()
	return seq, horizon, nil
}
