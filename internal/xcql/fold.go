package xcql

import (
	"fmt"
	"math"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// Folded aggregates. An incremental unit re-runs the versions of its
// filler that an arrival changed, and each re-run of a body like
//
//	for $a in $unit where sum($a/transaction?[now-PT1H,now]/amount) >= 5000 …
//
// crosses every hole the version holds. The aggregate's argument is a chain
// of layers that map their input node by node over a child step, so it is
// the concatenation of the chain run over each child filler alone: a term
// that depends on that child's versions and the clock, not on the version
// holding it. The engine (internal/inc) rewrites the aggregate into a
// FnFold call, keeps each child's term in a TermMemo and drops it when the
// child's content changes; the frame evaluates a missing term and folds the
// terms of the holes in the order xcql:fillers reads them.

// FnFold stands for a folded aggregate: xcql:fold(nodes, stream, site)
// reads the holes of nodes as the xcql:fillers call its chain crossed the
// child step with reads them, and folds their terms (FoldCall).
const FnFold = "xcql:fold"

// FoldCall is the call that folds the terms of fold site number site in
// place of the aggregate whose chain crossed the child step with fillers,
// an xcql:fillers call that hands out every version it reads (Whole).
func FoldCall(fillers *xq.Call, site int) *xq.Call {
	in := *IntrinsicOf(fillers)
	in.Op, in.site = FnFold, site
	return in.call(fillers.Args...)
}

// foldVar binds a unit frame for its fold calls; no query can spell it.
const foldVar = "\x00fold"

// FoldSite is one aggregate a unit body folds from per-child terms: Agg
// ("sum", "avg" or "count") over Chain, the aggregate's argument with
// $UnitVar where it crossed the holes of the child step its FoldCall
// reads. Each layer of Chain maps its input node by node and reads the
// store only through it, so over no input the chain yields nothing at any
// instant: what its skeleton observes of the clock is in every term's
// horizon, and changes nothing where there is no term.
type FoldSite struct {
	Agg   string
	Chain xq.Expr
}

// TermMemo keeps a frame's terms between evaluations and decides how long
// each holds.
type TermMemo interface {
	// Term returns the term of child fid at site, if one is kept that holds
	// at the instant at.
	Term(site, fid int, at time.Time) *Term
	// KeepTerm keeps a term the frame evaluated.
	KeepTerm(site, fid int, t *Term)
}

// Term is what one child filler contributes to a fold site: the number
// (xq.NumberValue) of each item the chain yields over the child's visible
// versions, NaN included, in order; the instant at which those can change
// (seconds and nanoseconds since the zero time, which is never); and what
// evaluating them charged beyond the chain's skeleton and the child step's
// read, which the fold charges itself. One is kept per child filler, so it
// is small: the access counters, which only a chain crossing further holes
// moves, are nil when they are zero.
type Term struct {
	nums                []float64
	sec                 int64
	nsec                int32
	steps, items, bytes int64
	access              *obs.AccessCounts
}

// spent is what an evaluation charged a frame's budget and counters.
type spent struct {
	steps, items, bytes int64
	access              obs.AccessCounts
}

func (s spent) minus(o spent) spent {
	return spent{s.steps - o.steps, s.items - o.items, s.bytes - o.bytes, s.access.Sub(o.access)}
}

// Horizon is the instant at which the term can change with the store
// unchanged; zero: never.
func (t *Term) Horizon() time.Time {
	return time.Unix(t.sec+zeroUnix, int64(t.nsec)).UTC()
}

// zeroUnix is the zero time in Unix seconds.
var zeroUnix = time.Time{}.Unix()

// Len is the number of items the term's chain yields.
func (t *Term) Len() int { return len(t.nums) }

// foldState is a frame's folding: its sites, the memo their terms are kept
// in, the frame the terms evaluate in, and the id a term's read reads.
type foldState struct {
	sites []foldSite
	memo  TermMemo
	terms *UnitEval
	one   [1]int
}

type foldSite struct {
	FoldSite
	// skel is what the chain charges over no input, measured once: each
	// term's evaluation charges it, and so does the fold, in place of the
	// evaluation of the chain the aggregate made.
	skel     spent
	measured bool
}

// SetFolds gives the frame the fold sites its bodies' FnFold calls number,
// and the memo their terms are kept in.
func (u *UnitEval) SetFolds(sites []FoldSite, memo TermMemo) {
	u.fold.sites = make([]foldSite, len(sites))
	for i, s := range sites {
		u.fold.sites[i].FoldSite = s
	}
	u.fold.memo = memo
}

// fold answers a folded aggregate. It reads the holes of its input as
// xcql:fillers does (callInput) — each id once, at its first position; a
// node holding none of the tag's holes contributes its inline children
// where it stands —, charges what the aggregate's evaluation charged: the child
// step's read, the chain's skeleton and each term — kept or evaluated now
// — what its evaluation charged, and folds the terms' numbers left to right
// as the aggregate folds its argument.
func (in *Intrinsic) fold(ctx *xq.Context, st *fragment.Store, nodes xq.Sequence) (xq.Sequence, error) {
	var u *UnitEval
	if v, _ := ctx.Var(foldVar); len(v) == 1 {
		u, _ = v[0].(*UnitEval)
	}
	if u == nil || in.site >= len(u.fold.sites) {
		return nil, fmt.Errorf("xcql: %s outside a folded unit", FnFold)
	}
	f, site, tsid := &u.fold, in.site, in.TSIDs[0]
	s := &f.sites[site]
	acc := u.static.Access
	var input callInput
	input.collect(acc.Scratch(), nodes, tsid, st.Structure().ByID(tsid), false)
	input.closeRun() // a read's window needs its groups
	defer input.release()
	// the child step's read, made as xcql:fillers makes it, of no position:
	// it dedupes the ids and counts what the read examines, and is charged
	// the whole read, which the kept terms stand in for
	r := fragment.Read{IDs: input.ids, Groups: input.groups, From: 1, To: 0, Defer: true}
	if in.span != nil && !in.Bare {
		// the tops the bounded read builds are its versions in the
		// bound, which a read of bare tops under it counts; each term
		// reports the bound's comparisons to its own horizon
		sp, err := in.span.eval(u.ctx)
		if err != nil {
			return nil, err
		}
		sp.Horizon = nil
		r.From, r.Bare, r.Span = 0, true, sp
	}
	kept, read := acc.Read(st, r)
	if !in.Bare {
		read.Built = read.Examined
		if in.span != nil {
			read.Built = len(kept)
		}
	}
	acc.Charge(st, read)
	if !s.measured {
		if err := u.measure(s); err != nil {
			return nil, err
		}
	}
	if err := u.charge(s.skel.steps, s.skel.items, s.skel.bytes, &s.skel.access); err != nil {
		return nil, err
	}
	at := u.static.Now
	total, items, numbers := 0.0, 0, 0
	// add folds in the term of child id, or, with id < 0, of kids, the
	// inline children of a node
	add := func(id int, kids []*xmldom.Node) error {
		var t *Term
		if id >= 0 {
			t = f.memo.Term(site, id, at)
		}
		if t == nil {
			var err error
			if t, err = u.evalTerm(s, st, in, id, kids); err != nil {
				return err
			}
			if id >= 0 {
				f.memo.KeepTerm(site, id, t)
			}
		}
		if err := u.charge(t.steps, t.items, t.bytes, t.access); err != nil {
			return err
		}
		if h := t.Horizon(); !h.IsZero() {
			u.horizon.Until(h)
		}
		items += len(t.nums)
		for _, v := range t.nums {
			if !math.IsNaN(v) {
				total += v
				numbers++
			}
		}
		return nil
	}
	// the read left each group's distinct ids in place, in order
	ids := input.ids
	err := input.each(func(g int, kids []*xmldom.Node) error {
		if g < 0 {
			return add(-1, kids)
		}
		holes := input.groups[g].Holes
		for _, id := range ids[:holes] {
			if err := add(id, nil); err != nil {
				return err
			}
		}
		ids = ids[holes:]
		return nil
	})
	if err != nil {
		return nil, err
	}
	switch s.Agg {
	case "count":
		return xq.Singleton(float64(items)), nil
	case "avg":
		if items == 0 || numbers == 0 {
			return nil, nil
		}
		return xq.Singleton(total / float64(numbers)), nil
	}
	return xq.Singleton(total), nil
}

// charge charges the frame what an evaluation charged: the budget's steps,
// items and bytes, and the access counters, nil for none.
func (u *UnitEval) charge(steps, items, bytes int64, access *obs.AccessCounts) error {
	if err := u.env.budget.Charge(steps, items, bytes); err != nil {
		return err
	}
	if access != nil {
		u.static.Stats.AddAccess(*access)
	}
	return nil
}

// measure evaluates a site's chain over no input, in the terms' frame: what
// that charges is the chain's skeleton.
func (u *UnitEval) measure(s *foldSite) error {
	t := u.termFrame()
	t.horizon.Reset(t.static.Now)
	if _, err := t.term(s.Chain, nil); err != nil {
		return err
	}
	s.skel, s.measured = t.used(), true
	return nil
}

// termFrame arms the frame terms evaluate in for an evaluation at the
// frame's instant under its limits.
func (u *UnitEval) termFrame() *UnitEval {
	if u.fold.terms == nil {
		u.fold.terms = u.q.NewUnitEval()
	}
	t := u.fold.terms
	t.stats = obs.EvalStats{}
	t.arm(u.static.Now, u.env.budget.Limits(), &t.stats, u.sc)
	return t
}

// evalTerm evaluates site s's chain over the versions of child id as the
// child step, fold call in, reads them — bare tops or stamped, under its
// lifespan bound — or over kids, the inline children of a node, projected
// by the bound, in the terms' frame, and returns what it yields and
// charged beyond the skeleton and the read. A budget trip returns or panics
// as the chain's evaluation in the unit would; the unit's frame reports it.
func (u *UnitEval) evalTerm(s *foldSite, st *fragment.Store, in *Intrinsic, id int, kids []*xmldom.Node) (*Term, error) {
	t := u.termFrame()
	t.horizon.Reset(t.static.Now)
	base := kids
	var read spent
	var g fragment.Group
	var span fragment.Span
	if in.span != nil {
		var err error
		if span, err = in.span.eval(t.ctx); err != nil {
			return nil, err
		}
	}
	sc := t.static.Access.Scratch()
	var lent []*xmldom.Node
	if id >= 0 {
		u.fold.one[0] = id
		lent = sc.Nodes()
		base, g = t.static.Access.Read(st, fragment.Read{IDs: u.fold.one[:], Bare: in.Bare, Span: span, Into: lent})
		// the read's own charge is its group's: the fold charges that
		read = t.used()
		below(t.static, st, base, span)
	} else if span.Kind != fragment.NoSpan {
		base = project(t.static, st, base, span)
	}
	// the term's bound sequence is lent of the evaluation, and given back
	// once the chain's items are numbers
	bound, err := appendRead(t.static.Lend(), &t.env.budget, base, g.Stamps)
	if id >= 0 {
		giveNodes(sc, base, lent)
	}
	if err != nil {
		return nil, err
	}
	defer t.static.Give(bound)
	seq, err := t.term(s.Chain, bound)
	if err != nil {
		return nil, err
	}
	// the term and its numbers are one allocation when it holds one: a
	// child's chain mostly yields one item, or none
	var term *Term
	if len(seq) == 1 {
		one := &struct {
			t Term
			n [1]float64
		}{}
		term, one.t.nums = &one.t, one.n[:]
	} else {
		term = &Term{}
		if len(seq) > 1 {
			term.nums = make([]float64, len(seq))
		}
	}
	for i, it := range seq {
		term.nums[i] = xq.NumberValue(it)
	}
	c := t.used().minus(s.skel).minus(read)
	term.steps, term.items, term.bytes = c.steps, c.items, c.bytes
	if c.access != (obs.AccessCounts{}) {
		access := c.access
		term.access = &access
	}
	if h, ok := t.horizon.Next(); ok {
		term.sec, term.nsec = h.Unix()-zeroUnix, int32(h.Nanosecond())
	}
	return term, nil
}

// term runs a chain once with $UnitVar bound to bound, into the horizon
// its caller reset. Errors come back as the evaluator returns them: the
// unit frame around the fold wraps them.
func (u *UnitEval) term(chain xq.Expr, bound xq.Sequence) (xq.Sequence, error) {
	u.ctx.Rebind(bound)
	defer u.ctx.Rebind(nil)
	return xq.Eval(chain, u.ctx)
}

// used is what the frame's budget and counters hold.
func (u *UnitEval) used() spent {
	steps, items, bytes := u.env.budget.Used()
	return spent{steps, items, bytes, u.stats.Access()}
}
