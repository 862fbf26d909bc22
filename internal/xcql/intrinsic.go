package xcql

import (
	"strconv"

	"xcql/internal/xq"
)

// Intrinsic is one store access of a translated plan, compiled once, by the
// translator: the callee of an xq.Call named after its Op. The call's Args
// are what its evaluation evaluates — the nodes a fillers call or a fold
// crosses the holes of, a projection's input and bounds — and everything
// else is here:
//
//	Op         Args             Stream  TSIDs        filter  per-parent  bound  Bare
//	view       ()               ✓
//	root       ()               ✓
//	fillers    (nodes)          ✓       the tag      ✓       ✓           ✓      ✓
//	bytsid     ()               ✓       one or more  ✓                   ✓      ✓
//	iproj      (nodes, tb, te)  ✓
//	vproj      (nodes, vb, ve)  ✓
//	fold       (nodes)          ✓       the tag                          ✓      ✓
//
// A plan renders a call's Intrinsic after its Args, spelled as literal
// arguments (String): the incremental engine's unit signatures and
// EXPLAIN's rewritten plan read that rendering, and its evaluation is
// charged a budget step per operand it spells, as it would be for the
// literals (operands) — but the lifespan bound, whose ends are evaluated as
// the projection's arguments were. An Intrinsic is its call's own while
// the translator builds the plan (a pass that adds to it copies it), and
// read-only after.
type Intrinsic struct {
	// Op is the function the call is: FnView, FnRoot, FnFillers, FnByTSID,
	// FnIProj, FnVProj or FnFold.
	Op string
	// Stream is the stream whose store the call reads.
	Stream string
	// TSIDs are the tags whose fillers the call reads: a fillers call's
	// child tag, a jump's targets in tag-structure order, the tag of the
	// child step a fold replaces.
	TSIDs []int
	// Bare reports that nothing the plan does with the call's output
	// observes a lifespan stamp (markBare): its read hands out stored
	// payloads and builds no top.
	Bare bool
	// filter is what the translator pushed below the read (pushed), each
	// the positional predicates of a child step, applied per parent
	// (perParent); nil when the call carries none.
	filter *pushed
	each   *perParent
	// span is the temporal projection pushed into the read (pushSpan), nil
	// when the call carries none.
	span *bound
	// site is a fold's number among its frame's sites.
	site int
	rt   *Runtime
}

// IntrinsicOf returns the intrinsic e is a call to, nil when it is none.
func IntrinsicOf(e xq.Expr) *Intrinsic {
	if c, ok := e.(*xq.Call); ok {
		in, _ := c.Callee.(*Intrinsic)
		return in
	}
	return nil
}

// call is a call to in over args.
func (in *Intrinsic) call(args ...xq.Expr) *xq.Call {
	return &xq.Call{Name: in.Op, Args: args, Callee: in}
}

// String spells the operands the call carries beyond its Args: the stream,
// the tsids, the filter, the per-parent list and the bound, then tops=bare
// — a fold's stream and site, and its bound.
func (in *Intrinsic) String() string {
	s := `"` + in.Stream + `"`
	if in.Op == FnFold {
		s += ", " + strconv.Itoa(in.site)
		if in.span != nil {
			s += ", " + in.span.String()
		}
		return s
	}
	for _, id := range in.TSIDs {
		s += ", " + strconv.Itoa(id)
	}
	if in.filter != nil {
		s += ", " + in.filter.String()
	}
	if in.each != nil {
		s += ", " + in.each.String()
	}
	if in.span != nil {
		s += ", " + in.span.String()
	}
	if in.Bare {
		s += ", tops=bare"
	}
	return s
}

// operands is the number of operands String spells but the bound, whose
// ends are evaluated, and tops=bare, which marks how the call reads, not
// what it reads.
func (in *Intrinsic) operands() int {
	if in.Op == FnFold {
		return 2
	}
	n := 1 + len(in.TSIDs)
	if in.filter != nil {
		n++
	}
	if in.each != nil {
		n++
	}
	return n
}

// Call evaluates the call, args its Args' values.
func (in *Intrinsic) Call(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
	for range in.operands() {
		if err := ctx.Static.Budget.Step(); err != nil {
			return nil, err
		}
	}
	if in.Op == FnView {
		return in.rt.view(in.Stream, ctx.Static)
	}
	st, err := in.rt.storeOrErr(in.Stream)
	if err != nil {
		return nil, err
	}
	switch in.Op {
	case FnRoot:
		return root(ctx, st)
	case FnFillers:
		return in.fillers(ctx, st, args[0])
	case FnByTSID:
		return in.byTSID(ctx, st)
	case FnIProj:
		return iproj(ctx, st, args)
	case FnVProj:
		return vproj(ctx, st, args)
	}
	return in.fold(ctx, st, args[0])
}

// Whole reports that the call hands out every version it reads: it carries
// neither a pushed filter nor a per-parent list. A lifespan bound does not
// count: it maps each version on its own (Distributes says when it does).
func (in *Intrinsic) Whole() bool { return in.filter == nil && in.each == nil }

// Pred is the call's pushed filter as a predicate over each node the call
// returns, nil when it carries none: what a reader that fetches the call's
// fillers itself applies in the evaluator instead.
func (in *Intrinsic) Pred() xq.Expr { return in.filter.pred() }
