package xq

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/temporal"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// Static holds the per-evaluation environment shared by every context:
// the evaluation instant (what "now" resolves to), the function registry,
// and the resolvers that tie the engine to documents, streams and
// fragment stores.
type Static struct {
	// Now is the evaluation instant; continuous queries re-evaluate with a
	// moving Now.
	Now time.Time
	// Funcs resolves function calls; nil falls back to the builtins.
	Funcs map[string]Func
	// Stream resolves stream("name") to the sequence forming the root of
	// that stream's temporal view. Set by the xcql runtime.
	Stream func(name string) (Sequence, error)
	// Doc resolves doc("uri") / document("uri").
	Doc func(uri string) (*xmldom.Node, error)
	// Holes resolves hole ids during interval/version projections over
	// fragment trees; nil means projections see materialized views only.
	Holes temporal.HoleResolver
	// Budget meters the evaluation: every expression evaluation charges a
	// step (which also polls cancellation), loops charge cardinality, and
	// constructors charge bytes. nil means unlimited — except the
	// recursion-depth guard on user-declared functions, which always
	// applies (budget.DefaultMaxDepth).
	Budget *budget.Budget
	// Stats collects per-evaluation cost counters (fillers scanned, holes
	// resolved, nodes constructed, …) for the observability layer. nil
	// means "not collecting"; every obs method is nil-safe.
	Stats *obs.EvalStats
	// Access is the access path the translated plan's store reads go
	// through, charging Stats the way the plan's index pays for them. Set
	// by the xcql runtime.
	Access fragment.Access
	// Horizon, when set, is told of everything the evaluation decides by
	// the moving Now — every comparison that resolves a symbolic "now",
	// every direct read of the clock — so the caller learns how long the
	// result stays valid over an unchanged store. nil tracks nothing.
	Horizon *xtime.Horizon

	// The evaluation's scratch, which no result keeps (DESIGN.md "What an
	// evaluation allocates"): args is the stack of the arguments of the
	// calls in progress, and bufs the free list of the sequences lent to a
	// path's intermediate steps, to a constructor's content and to the
	// operands an operator only reads. Every slot above a slice's length is
	// nil, so that a kept Static keeps no node alive. A Static is one
	// evaluation's at a time.
	args []Sequence
	bufs []Sequence
}

// Func is a registered function implementation. args is lent for the
// call: a Func may keep and return the sequences args holds, never the
// args slice itself, which the evaluator reuses for the next call.
type Func func(ctx *Context, args []Sequence) (Sequence, error)

// lend hands out an empty sequence from the free list, nil when the list
// is empty; give hands it back once nothing reads it.
func (s *Static) lend() Sequence {
	n := len(s.bufs)
	if n == 0 {
		return nil
	}
	b := s.bufs[n-1]
	s.bufs[n-1] = nil
	s.bufs = s.bufs[:n-1]
	return b
}

func (s *Static) give(b Sequence) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	s.bufs = append(s.bufs, b[:0])
}

// popArgs drops the arguments above base, those of a call that returned.
func (s *Static) popArgs(base int) {
	clear(s.args[base:])
	s.args = s.args[:base]
}

// Context is a dynamic evaluation context: variable bindings, the context
// item, and its position/size for predicate evaluation.
type Context struct {
	Static *Static
	vars   *binding
	// focus is the context item as a one-item sequence, which "." evaluates
	// to and a relative path starts from; nil when there is none. In a
	// predicate it is a slot of the sequence the predicate runs over, not a
	// copy.
	focus Sequence
	pos   int // 1-based position() inside a predicate
	size  int // last() inside a predicate
	depth int // user-declared function application depth
	// doc is the document node the innermost enclosing path started from:
	// what root() — and so a leading "/" — resolves to for nodes below it.
	doc *xmldom.Node
}

type binding struct {
	name string
	val  Sequence
	next *binding
}

// aheadName names a binding that carries what a for clause read ahead
// (aheadMark), just below the clause's own binding; no query can spell it.
const aheadName = "\x00ahead"

// aheadMark is the binding below a for clause's binding when the clause
// read ahead: what its ReadAhead returned, and the position of the binding
// above in the clause's sequence, from 0. Its value is the mark itself.
// Only a clause that reads ahead pays for one, so a binding stays the size
// it is.
type aheadMark struct {
	binding
	ahead any
	at    int
	self  [1]Item
}

// NewContext builds a root context over the given static environment.
func NewContext(s *Static) *Context {
	if s.Now.IsZero() {
		s.Now = time.Now().UTC()
	}
	return &Context{Static: s}
}

// Bind returns a child context with $name bound to val.
func (c *Context) Bind(name string, val Sequence) *Context {
	child := *c
	child.vars = &binding{name: name, val: val, next: c.vars}
	return &child
}

// Rebind replaces the value of the variable c was made by binding. Only for
// an owner that made c itself and runs one evaluation at a time over it:
// the contexts an evaluation derives from c share the binding, and none of
// them outlives the evaluation.
func (c *Context) Rebind(val Sequence) { c.vars.val = val }

// bindItem returns a child context with $name bound to seq[at], a binding
// of a for clause, and — when the clause's ReadAhead returned ahead — the
// mark below the binding.
func (c *Context) bindItem(name string, seq Sequence, at int, ahead any) (*Context, *aheadMark) {
	child := *c
	var m *aheadMark
	if ahead != nil {
		m = &aheadMark{binding: binding{name: aheadName, next: c.vars}, ahead: ahead, at: at}
		m.self[0] = m
		m.val = m.self[:]
		child.vars = &m.binding
	}
	child.vars = &binding{name: name, val: seq[at : at+1 : at+1], next: child.vars}
	return &child, m
}

// Ahead reports what a for clause's ReadAhead returned for the binding
// whose value seq is — the very sequence a reference to the clause's
// variable evaluates to, not an equal one — and the binding's position in
// the clause's sequence. ok is false for any other sequence.
func (c *Context) Ahead(seq Sequence) (ahead any, at int, ok bool) {
	if len(seq) != 1 {
		return nil, 0, false
	}
	for b := c.vars; b != nil; b = b.next {
		if m := b.next; m != nil && m.name == aheadName && len(b.val) == 1 && &b.val[0] == &seq[0] {
			mark := m.val[0].(*aheadMark)
			return mark.ahead, mark.at, true
		}
	}
	return nil, 0, false
}

// WithItem returns a child context focused on item at position pos of size.
func (c *Context) WithItem(item Item, pos, size int) *Context {
	child := *c
	child.focus, child.pos, child.size = Singleton(item), pos, size
	return &child
}

// item is the context item, nil when there is none.
func (c *Context) item() Item {
	if len(c.focus) == 0 {
		return nil
	}
	return c.focus[0]
}

// Var looks up a variable binding.
func (c *Context) Var(name string) (Sequence, bool) {
	for b := c.vars; b != nil; b = b.next {
		if b.name == name {
			return b.val, true
		}
	}
	return nil, false
}

// Eval evaluates the expression in the context. Every call charges one
// budget step, so any expression loop — FLWOR iteration, path steps,
// predicate application, function bodies — is cooperatively cancellable
// and step-bounded.
func Eval(e Expr, ctx *Context) (Sequence, error) {
	if err := ctx.Static.Budget.Step(); err != nil {
		return nil, err
	}
	switch ex := e.(type) {
	case *Literal:
		return ex.seq, nil
	case *VarRef:
		v, ok := ctx.Var(ex.Name)
		if !ok {
			return nil, fmt.Errorf("xq: undefined variable $%s", ex.Name)
		}
		return v, nil
	case *ContextItem:
		if ctx.focus == nil {
			return nil, fmt.Errorf("xq: context item is undefined")
		}
		return ctx.focus, nil
	case *SeqExpr:
		var out Sequence
		for _, it := range ex.Items {
			n := len(out)
			var err error
			if out, err = appendEval(out, it, ctx); err != nil {
				return nil, err
			}
			if err := ctx.Static.Budget.AddItems(len(out) - n); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *Path:
		return evalPath(nil, ex, ctx)
	case *Filter:
		base, err := Eval(ex.Base, ctx)
		if err != nil {
			return nil, err
		}
		return ApplyPredicates(base, ex.Preds, ctx)
	case *BinOp:
		return evalBinOp(ex, ctx)
	case *Unary:
		v, lent, err := borrow(ex.E, ctx)
		if err != nil {
			return nil, err
		}
		var neg Sequence
		if len(v) > 0 {
			neg = Singleton(-NumberValue(v[0]))
		}
		ctx.Static.give(lent)
		return neg, nil
	case *If:
		cond, err := evalBool(ex.Cond, ctx)
		if err != nil {
			return nil, err
		}
		if cond {
			return Eval(ex.Then, ctx)
		}
		return Eval(ex.Else, ctx)
	case *FLWOR:
		return evalFLWOR(ex, ctx)
	case *Quantified:
		return evalQuantified(ex, ctx)
	case *Call:
		return evalCall(ex, ctx)
	case *ElemCtor:
		el, err := evalElemCtor(ex, ctx)
		if err != nil {
			return nil, err
		}
		return Singleton(el), nil
	case *AttrCtorExpr:
		v, err := evalString(ex.Value, ctx)
		if err != nil {
			return nil, err
		}
		return Singleton(AttrItem{Name: ex.Name, Value: v}), nil
	case *IntervalProj:
		return evalIntervalProj(ex, ctx)
	case *VersionProj:
		return evalVersionProj(ex, ctx)
	case *LastMarker:
		return nil, fmt.Errorf("xq: 'last' is only valid inside #[…]")
	case *StreamRef:
		if ctx.Static.Stream == nil {
			return nil, fmt.Errorf("xq: stream(%q): no stream resolver configured", ex.Name)
		}
		return ctx.Static.Stream(ex.Name)
	case *Module:
		return evalModule(ex, ctx)
	default:
		return nil, fmt.Errorf("xq: cannot evaluate %T", e)
	}
}

// --- paths ----------------------------------------------------------------

// evalPath appends the path's value to dst. Its intermediate steps run in
// sequences lent from the evaluation, one step's input handed back once the
// next step has read it, and only the last step appends to dst, so a path
// allocates what its value holds.
func evalPath(dst Sequence, p *Path, ctx *Context) (Sequence, error) {
	var cur Sequence
	if p.Base != nil {
		base, err := Eval(p.Base, ctx)
		if err != nil {
			return nil, err
		}
		cur = base
	} else {
		if ctx.focus == nil {
			return nil, fmt.Errorf("xq: relative path with undefined context item")
		}
		cur = ctx.focus
	}
	if len(cur) == 1 {
		if d, ok := cur[0].(*xmldom.Node); ok && d.Type == xmldom.DocumentNode && d != ctx.doc {
			child := *ctx
			child.doc = d
			ctx = &child
		}
	}
	st := ctx.Static
	var lent Sequence // cur, when a step before wrote it
	for i, step := range p.Steps {
		out := dst
		if i < len(p.Steps)-1 {
			out = st.lend()
		}
		next, err := applyStep(out, cur, step, ctx)
		st.give(lent)
		if err != nil {
			return nil, err
		}
		cur, lent = next, next
	}
	if len(p.Steps) == 0 {
		return append(dst, cur...), nil
	}
	return cur, nil
}

// applyStep appends to dst, in order and without duplicates, what step
// selects from the nodes of input.
func applyStep(dst, input Sequence, step Step, ctx *Context) (Sequence, error) {
	st := ctx.Static
	if len(input) == 1 {
		// one node's matches are distinct already: only a longer input can
		// reach a node twice
		n, ok := input[0].(*xmldom.Node)
		if !ok {
			return dst, nil // axis steps only apply to nodes
		}
		from := len(dst)
		dst = stepMatches(dst, n, step, st.Holes)
		if err := st.Budget.AddItems(len(dst) - from); err != nil {
			return nil, err
		}
		if len(step.Preds) == 0 {
			return dst, nil
		}
		pc := *ctx
		kept, err := filterOwned(dst[from:], step.Preds, &pc)
		return dst[:from+len(kept)], err
	}
	if len(input) == 0 {
		return dst, nil
	}
	var pc *Context
	if len(step.Preds) > 0 {
		c := *ctx
		pc = &c
	}
	seen := map[*xmldom.Node]bool{}
	matches := st.lend()
	for _, it := range input {
		n, ok := it.(*xmldom.Node)
		if !ok {
			continue
		}
		matches = stepMatches(matches[:0], n, step, st.Holes)
		if err := st.Budget.AddItems(len(matches)); err != nil {
			return nil, err
		}
		kept := matches
		if pc != nil {
			var err error
			if kept, err = filterOwned(matches, step.Preds, pc); err != nil {
				return nil, err
			}
		}
		for _, m := range kept {
			if mn, ok := m.(*xmldom.Node); ok {
				if seen[mn] {
					continue
				}
				seen[mn] = true
			}
			dst = append(dst, m)
		}
		clear(kept)
	}
	st.give(matches)
	return dst, nil
}

// stepMatches applies one axis step to a node. When a hole resolver is
// configured, <hole> placeholders encountered by child and descendant
// steps transparently expand to their fillers' versions, so the temporal
// view abstraction holds even for paths the XCQL translator could not
// type statically (user-function bodies, fragment content under a
// constructed element).
func stepMatches(dst Sequence, n *xmldom.Node, step Step, resolve temporal.HoleResolver) Sequence {
	switch step.Axis {
	case AxisSelf:
		return append(dst, n)
	case AxisAttribute:
		if step.Name == "*" {
			dst = slices.Grow(dst, len(n.Attrs))
			for _, a := range n.Attrs {
				dst = append(dst, AttrItem{Name: a.Name, Value: a.Value})
			}
			return dst
		}
		if v, ok := n.Attr(step.Name); ok {
			return append(dst, AttrItem{Name: step.Name, Value: v})
		}
		return dst
	case AxisChild:
		if step.Name == "text()" {
			for _, c := range n.Children {
				if c.Type == xmldom.TextNode {
					dst = append(dst, c)
				}
			}
			return dst
		}
		for _, c := range n.Children {
			switch {
			case c.Type != xmldom.ElementNode:
			case c.Name == "hole":
				for _, f := range holeFillers(c, resolve) {
					if step.Name == "*" || f.Name == step.Name {
						dst = append(dst, f)
					}
				}
			case step.Name == "*" || c.Name == step.Name:
				dst = append(dst, c)
			}
		}
		return dst
	case AxisDescendant:
		if step.Name == "text()" {
			n.Walk(func(m *xmldom.Node) bool {
				if m.Type == xmldom.TextNode {
					dst = append(dst, m)
				}
				return true
			})
			return dst
		}
		if resolve == nil {
			ds := n.Descendants(step.Name)
			dst = slices.Grow(dst, len(ds))
			for _, m := range ds {
				dst = append(dst, m)
			}
			return dst
		}
		var walk func(m *xmldom.Node)
		walk = func(m *xmldom.Node) {
			eachElementChild(m, resolve, func(c *xmldom.Node) {
				if step.Name == "*" || c.Name == step.Name {
					dst = append(dst, c)
				}
				walk(c)
			})
		}
		walk(n)
		return dst
	}
	return dst
}

// contains reports whether n is root or one of its descendants.
func contains(root, n *xmldom.Node) bool {
	found := false
	root.Walk(func(m *xmldom.Node) bool {
		found = found || m == n
		return !found
	})
	return found
}

// eachElementChild visits n's element children in place, a hole replaced
// by its fillers (one level). Without a resolver, holes are simply skipped
// — they are plumbing, not data.
func eachElementChild(n *xmldom.Node, resolve temporal.HoleResolver, visit func(*xmldom.Node)) {
	for _, c := range n.Children {
		if c.Type != xmldom.ElementNode {
			continue
		}
		if c.Name != "hole" {
			visit(c)
			continue
		}
		for _, f := range holeFillers(c, resolve) {
			visit(f)
		}
	}
}

// holeFillers returns the fillers' versions a <hole> child stands for, or
// nothing without a resolver.
func holeFillers(hole *xmldom.Node, resolve temporal.HoleResolver) []*xmldom.Node {
	if resolve == nil {
		return nil
	}
	if idStr, ok := hole.Attr("id"); ok {
		if id, err := strconv.Atoi(idStr); err == nil {
			return resolve(id)
		}
	}
	return nil
}

// ApplyPredicates filters input through preds in turn, as a step or a
// filter expression applies its predicates: each item is evaluated at its
// position in what the previous predicate kept, and a number selects the
// item whose position it equals, anything else by its effective boolean
// value. One context is focused on item after item: a predicate's
// evaluation never keeps the context it was handed. input is only read.
func ApplyPredicates(input Sequence, preds []Expr, ctx *Context) (Sequence, error) {
	if len(preds) == 0 {
		return input, nil
	}
	pc := *ctx
	kept, err := filterInto(nil, input, preds[0], &pc)
	if err != nil {
		return nil, err
	}
	return filterOwned(kept, preds[1:], &pc)
}

// filterOwned is ApplyPredicates over a sequence the caller owns: the
// survivors move to its front, and the slots they leave are cleared. pc is
// a copy of the caller's context, refocused item by item.
func filterOwned(seq Sequence, preds []Expr, pc *Context) (Sequence, error) {
	for _, pred := range preds {
		kept, err := filterInto(seq[:0], seq, pred, pc)
		if err != nil {
			return nil, err
		}
		clear(seq[len(kept):])
		seq = kept
	}
	return seq, nil
}

// filterInto appends to dst the items of input that pred keeps, focusing pc
// on each in turn. dst may be input[:0]: an item is written back only once
// its predicate is decided.
func filterInto(dst, input Sequence, pred Expr, pc *Context) (Sequence, error) {
	pc.size = len(input)
	for i := range input {
		pc.focus, pc.pos = input[i:i+1:i+1], i+1
		v, lent, err := borrow(pred, pc)
		if err != nil {
			return nil, err
		}
		// numeric predicate selects by position
		keep := EffectiveBool(v)
		if len(v) == 1 {
			if f, ok := v[0].(float64); ok {
				keep = f == float64(i+1)
			}
		}
		pc.Static.give(lent)
		if keep {
			dst = append(dst, input[i])
		}
	}
	return dst, nil
}

// borrow evaluates e for a caller that reads its value and keeps no part of
// it, and hands the value back with give(lent) before it evaluates anything
// else: a path's value is built in a lent sequence, every other value is
// returned as Eval returns it, with lent nil.
func borrow(e Expr, ctx *Context) (v, lent Sequence, err error) {
	if _, ok := e.(*Path); !ok {
		v, err = Eval(e, ctx)
		return v, nil, err
	}
	v, err = appendEval(ctx.Static.lend(), e, ctx)
	return v, v, err
}

// evalBool is e's effective boolean value.
func evalBool(e Expr, ctx *Context) (bool, error) {
	v, lent, err := borrow(e, ctx)
	if err != nil {
		return false, err
	}
	b := EffectiveBool(v)
	ctx.Static.give(lent)
	return b, nil
}

// evalString is the string values of e's items joined by single spaces.
func evalString(e Expr, ctx *Context) (string, error) {
	v, lent, err := borrow(e, ctx)
	if err != nil {
		return "", err
	}
	s := joinAtomics(v)
	ctx.Static.give(lent)
	return s, nil
}

// appendEval appends e's value to dst, as append(dst, Eval(e, ctx)...)
// would, charging the same: a path's last step appends to dst, and a
// constructor's element goes in without the one-item sequence Eval wraps
// it in.
func appendEval(dst Sequence, e Expr, ctx *Context) (Sequence, error) {
	switch ex := e.(type) {
	case *Path:
		if err := ctx.Static.Budget.Step(); err != nil {
			return nil, err
		}
		return evalPath(dst, ex, ctx)
	case *ElemCtor:
		if err := ctx.Static.Budget.Step(); err != nil {
			return nil, err
		}
		el, err := evalElemCtor(ex, ctx)
		if err != nil {
			return nil, err
		}
		return append(dst, el), nil
	}
	v, err := Eval(e, ctx)
	if err != nil {
		return nil, err
	}
	return append(dst, v...), nil
}

// --- operators --------------------------------------------------------------

var allenOps = map[string]bool{
	"before": true, "after": true, "meets": true, "overlaps": true,
	"during": true, "covers": true, "starts": true, "finishes": true,
}

func evalBinOp(b *BinOp, ctx *Context) (Sequence, error) {
	switch b.Op {
	case "or", "and":
		l, err := evalBool(b.L, ctx)
		if err != nil {
			return nil, err
		}
		if l == (b.Op == "or") {
			return boolSeq(l), nil
		}
		r, err := evalBool(b.R, ctx)
		if err != nil {
			return nil, err
		}
		return boolSeq(r), nil
	}
	// the operands are only read: a path's is built in a lent sequence
	l, lentL, err := borrow(b.L, ctx)
	if err != nil {
		return nil, err
	}
	r, lentR, err := borrow(b.R, ctx)
	if err != nil {
		return nil, err
	}
	res, err := applyBinOp(b.Op, l, r, ctx.Static)
	ctx.Static.give(lentR)
	ctx.Static.give(lentL)
	return res, err
}

// applyBinOp is the value of "l op r" for an operator other than or and
// and; it keeps no part of l or r.
func applyBinOp(op string, l, r Sequence, st *Static) (Sequence, error) {
	switch op {
	case "=", "!=", "<", "<=", ">", ">=":
		return boolSeq(generalCompare(op, l, r, st)), nil
	case "eq", "ne", "lt", "le", "gt", "ge":
		if len(l) == 0 || len(r) == 0 {
			return nil, nil
		}
		if isNaNItem(l[0]) || isNaNItem(r[0]) {
			return boolSeq(op == "ne"), nil
		}
		c := compareAtomic(l[0], r[0], st)
		var res bool
		switch op {
		case "eq":
			res = c == 0
		case "ne":
			res = c != 0
		case "lt":
			res = c < 0
		case "le":
			res = c <= 0
		case "gt":
			res = c > 0
		case "ge":
			res = c >= 0
		}
		return boolSeq(res), nil
	case "+", "-", "*", "div", "idiv", "mod":
		return evalArith(op, l, r, st)
	}
	if allenOps[op] {
		li, lok := sequenceInterval(l, st)
		ri, rok := sequenceInterval(r, st)
		if !lok || !rok {
			return falseSeq, nil
		}
		at := st.Now
		st.Horizon.ObserveIntervals(li, ri)
		var res bool
		switch op {
		case "before":
			res = li.Before(ri, at)
		case "after":
			res = li.After(ri, at)
		case "meets":
			res = li.Meets(ri, at)
		case "overlaps":
			res = li.Overlaps(ri, at)
		case "during":
			res = li.During(ri, at)
		case "covers":
			res = li.Covers(ri, at)
		case "starts":
			res = li.Starts(ri, at)
		case "finishes":
			res = li.Finishes(ri, at)
		}
		return boolSeq(res), nil
	}
	return nil, fmt.Errorf("xq: unknown operator %q", op)
}

// generalCompare implements XPath existential comparison semantics. The
// items are classified where they stand: no atomized copy of either side.
func generalCompare(op string, l, r Sequence, st *Static) bool {
	var few [2]Comparand
	rc := few[:0]
	for _, b := range r {
		rc = append(rc, comparandOf(b))
	}
	for _, a := range l {
		ca := comparandOf(a)
		for i := range rc {
			if holds(op, &ca, &rc[i], st) {
				return true
			}
		}
	}
	return false
}

// sequenceInterval derives the time interval of a sequence for Allen
// comparisons: the lifespan of a node, a point for a dateTime, or the
// value of an interval-like pair.
func sequenceInterval(seq Sequence, st *Static) (xtime.Interval, bool) {
	if len(seq) == 0 {
		return xtime.Interval{}, false
	}
	switch v := seq[0].(type) {
	case *xmldom.Node:
		return temporal.DerivedLifespan(v, st.Now, st.Horizon), true
	case xtime.DateTime:
		if len(seq) >= 2 {
			if to, ok := seq[1].(xtime.DateTime); ok {
				return xtime.NewInterval(v, to), true
			}
		}
		return xtime.PointInterval(v), true
	default:
		if dt, ok := DateTimeValue(v); ok {
			return xtime.PointInterval(dt), true
		}
	}
	return xtime.Interval{}, false
}

func evalArith(op string, l, r Sequence, st *Static) (Sequence, error) {
	if len(l) == 0 || len(r) == 0 {
		return nil, nil
	}
	a, b := AtomizeFirst(l), AtomizeFirst(r)
	// dateTime ± duration, dateTime ± number (seconds), dateTime - dateTime;
	// a lexical dateTime from node content counts as one
	if s, isStr := a.(string); isStr {
		if d, err := xtime.Parse(s); err == nil {
			a = d
		}
	}
	if da, ok := a.(xtime.DateTime); ok {
		switch bv := b.(type) {
		case xtime.Duration:
			switch op {
			case "+":
				return Singleton(da.Add(bv)), nil
			case "-":
				return Singleton(da.Sub(bv)), nil
			}
		case xtime.DateTime:
			if op == "-" {
				switch {
				case da.IsNow() && bv.IsNow():
					st.Horizon.Observe(da, bv) // fixed unless the shifts are calendar ones
				case da.IsNow() || bv.IsNow():
					st.Horizon.Collapse() // the difference grows with the clock
				}
				diff := da.Resolve(st.Now).Sub(bv.Resolve(st.Now))
				return Singleton(xtime.Duration{Seconds: diff.Seconds()}), nil
			}
		default:
			n := NumberValue(b)
			if !math.IsNaN(n) {
				d := xtime.Duration{Seconds: math.Abs(n)}
				if n < 0 {
					d.Negative = true
				}
				switch op {
				case "+":
					return Singleton(da.Add(d)), nil
				case "-":
					return Singleton(da.Sub(d)), nil
				}
			}
		}
		return nil, fmt.Errorf("xq: invalid dateTime arithmetic %s", op)
	}
	if dura, ok := a.(xtime.Duration); ok {
		if durb, ok := b.(xtime.Duration); ok {
			switch op {
			case "+":
				return Singleton(dura.Plus(durb)), nil
			case "-":
				return Singleton(dura.Plus(durb.Negated())), nil
			}
		}
		return nil, fmt.Errorf("xq: invalid duration arithmetic %s", op)
	}
	x, y := NumberValue(a), NumberValue(b)
	var res float64
	switch op {
	case "+":
		res = x + y
	case "-":
		res = x - y
	case "*":
		res = x * y
	case "div":
		res = x / y
	case "idiv":
		if y == 0 {
			return nil, fmt.Errorf("xq: integer division by zero")
		}
		res = math.Trunc(x / y)
	case "mod":
		res = math.Mod(x, y)
	}
	return Singleton(res), nil
}

// --- FLWOR ------------------------------------------------------------------

// evalFLWOR runs a FLWOR's clauses over the tuples they bind. Without an
// order by, the return clause runs as each tuple survives where, and each
// for clause binds one frame and rebinds it item by item: a frame never
// outlives the return of its tuple, so nothing is kept per tuple. An order
// by must see every tuple before the first return runs, so each tuple then
// keeps a context of its own, as does a tuple with a positional variable.
// A for clause with a ReadAhead hands it a sequence of several items before
// it binds the first.
func evalFLWOR(fl *FLWOR, ctx *Context) (Sequence, error) {
	ordered := len(fl.OrderBy) > 0
	type tuple struct {
		ctx  *Context
		keys []Item
	}
	var tuples []tuple
	var out Sequence
	emit := func(c *Context) error {
		n := len(out)
		var err error
		if out, err = appendEval(out, fl.Return, c); err != nil {
			return err
		}
		return ctx.Static.Budget.AddItems(len(out) - n)
	}
	var bindRest func(i int, c *Context) error
	bindRest = func(i int, c *Context) error {
		if i == len(fl.Clauses) {
			if fl.Where != nil {
				w, err := evalBool(fl.Where, c)
				if err != nil || !w {
					return err
				}
			}
			// each surviving tuple is intermediate cardinality: an
			// unbounded cross join trips MaxItems by its tuples alone
			if err := ctx.Static.Budget.AddItems(1); err != nil {
				return err
			}
			if !ordered {
				return emit(c)
			}
			var keys []Item
			for _, spec := range fl.OrderBy {
				kv, err := Eval(spec.Key, c)
				if err != nil {
					return err
				}
				keys = append(keys, AtomizeFirst(kv))
			}
			tuples = append(tuples, tuple{ctx: c, keys: keys})
			return nil
		}
		switch cl := fl.Clauses[i].(type) {
		case ForClause:
			seq, err := Eval(cl.In, c)
			if err != nil {
				return err
			}
			var ahead any
			if cl.Ahead != nil && len(seq) > 1 {
				ahead = cl.Ahead.Begin(c, seq)
			}
			if ordered || cl.PosVar != "" {
				for idx := range seq {
					cc, _ := c.bindItem(cl.Var, seq, idx, ahead)
					if cl.PosVar != "" {
						cc = cc.Bind(cl.PosVar, Singleton(float64(idx+1)))
					}
					if err := bindRest(i+1, cc); err != nil {
						return err
					}
				}
				return nil
			}
			if len(seq) == 0 {
				return nil
			}
			frame, mark := c.bindItem(cl.Var, seq, 0, ahead)
			for idx := range seq {
				frame.vars.val = seq[idx : idx+1 : idx+1]
				if mark != nil {
					mark.at = idx
				}
				if err := bindRest(i+1, frame); err != nil {
					return err
				}
			}
			return nil
		case LetClause:
			seq, err := Eval(cl.E, c)
			if err != nil {
				return err
			}
			return bindRest(i+1, c.Bind(cl.Var, seq))
		default:
			return fmt.Errorf("xq: unknown FLWOR clause %T", cl)
		}
	}
	if err := bindRest(0, ctx); err != nil {
		return nil, err
	}
	if !ordered {
		return out, nil
	}
	sort.SliceStable(tuples, func(i, j int) bool {
		for k, spec := range fl.OrderBy {
			a, b := tuples[i].keys[k], tuples[j].keys[k]
			if a == nil && b == nil {
				continue
			}
			if a == nil {
				return !spec.Descending
			}
			if b == nil {
				return spec.Descending
			}
			c := compareAtomic(a, b, ctx.Static)
			if c == 0 {
				continue
			}
			if spec.Descending {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	for _, t := range tuples {
		if err := emit(t.ctx); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// evalQuantified binds one frame for the range variable and rebinds it
// item by item, as a for clause does.
func evalQuantified(q *Quantified, ctx *Context) (Sequence, error) {
	seq, err := Eval(q.In, ctx)
	if err != nil {
		return nil, err
	}
	if len(seq) == 0 {
		return boolSeq(q.Every), nil
	}
	frame := ctx.Bind(q.Var, nil)
	for i := range seq {
		frame.Rebind(seq[i : i+1 : i+1])
		sat, err := evalBool(q.Satisfies, frame)
		if err != nil {
			return nil, err
		}
		if q.Every && !sat {
			return falseSeq, nil
		}
		if !q.Every && sat {
			return trueSeq, nil
		}
	}
	return boolSeq(q.Every), nil
}

// evalModule registers the prologue's function declarations in a derived
// static environment, then evaluates the body. Declared functions may
// call each other and themselves (recursion), and shadow builtins but
// not runtime-registered functions of the same name.
func evalModule(m *Module, ctx *Context) (Sequence, error) {
	st := *ctx.Static
	st.args, st.bufs = nil, nil // the body's scratch is its own
	merged := make(map[string]Func, len(st.Funcs)+len(m.Funcs))
	for _, fd := range m.Funcs {
		merged[fd.Name] = makeUserFunc(fd)
	}
	for k, v := range st.Funcs {
		merged[k] = v
	}
	st.Funcs = merged
	child := *ctx
	child.Static = &st
	return Eval(m.Body, &child)
}

// makeUserFunc closes a declaration into a callable: parameters become
// the only variable bindings visible in the body (standard XQuery
// function scoping). Application depth is guarded — self-recursive
// declarations would otherwise grow the goroutine stack until the
// process dies — against Budget.MaxDepth, or budget.DefaultMaxDepth
// when no budget is configured.
func makeUserFunc(fd FuncDecl) Func {
	return func(ctx *Context, args []Sequence) (Sequence, error) {
		if len(args) != len(fd.Params) {
			return nil, fmt.Errorf("xq: %s() wants %d argument(s), got %d", fd.Name, len(fd.Params), len(args))
		}
		depth := ctx.depth + 1
		if err := ctx.Static.Budget.CheckDepth(depth); err != nil {
			return nil, fmt.Errorf("xq: %s(): %w", fd.Name, err)
		}
		c := &Context{Static: ctx.Static, depth: depth}
		for i, p := range fd.Params {
			c = c.Bind(p, args[i])
		}
		return Eval(fd.Body, c)
	}
}

func evalCall(call *Call, ctx *Context) (Sequence, error) {
	var fn Func
	if call.Callee == nil {
		if fn = lookupFunc(ctx, call.Name); fn == nil {
			return nil, fmt.Errorf("xq: unknown function %s()", call.Name)
		}
	}
	// the arguments go on the evaluation's stack, above those of the calls
	// in progress, and come off when this one returns
	st := ctx.Static
	base := len(st.args)
	defer st.popArgs(base)
	for _, a := range call.Args {
		v, err := Eval(a, ctx)
		if err != nil {
			return nil, err
		}
		st.args = append(st.args, v)
	}
	args := st.args[base:len(st.args):len(st.args)]
	if fn == nil {
		return call.Callee.Call(ctx, args)
	}
	return fn(ctx, args)
}

func lookupFunc(ctx *Context, name string) Func {
	if ctx.Static.Funcs != nil {
		if f, ok := ctx.Static.Funcs[name]; ok {
			return f
		}
	}
	return builtins[name]
}

// --- constructors -----------------------------------------------------------

// evalElemCtor builds the constructor's element. Its content is gathered in
// a lent sequence: the element keeps the content's nodes, not the sequence.
func evalElemCtor(ct *ElemCtor, ctx *Context) (*xmldom.Node, error) {
	st := ctx.Static
	name := ct.Name
	if ct.NameExpr != nil {
		v, lent, err := borrow(ct.NameExpr, ctx)
		if err != nil {
			return nil, err
		}
		if len(v) == 0 {
			return nil, fmt.Errorf("xq: computed element name is empty")
		}
		name = StringValue(v[0])
		st.give(lent)
	}
	el := xmldom.NewElement(name)
	st.Stats.AddNodes(1)
	for _, ac := range ct.Attrs {
		val, err := evalAttrParts(ac.Parts, ctx)
		if err != nil {
			return nil, err
		}
		el.SetAttr(ac.Name, val)
	}
	content := st.lend()
	for _, ce := range ct.Content {
		from := len(content)
		var err error
		if content, err = appendEval(content, ce, ctx); err != nil {
			return nil, err
		}
		// constructor content is attached, not copied, but the byte budget
		// charges its logical size all the same, so a result cannot outgrow
		// the budget by mentioning one subtree many times
		for _, it := range content[from:] {
			if n, ok := it.(*xmldom.Node); ok {
				if err := st.Budget.AddBytes(int64(n.TreeSize())); err != nil {
					return nil, err
				}
			}
		}
	}
	appendContent(el, content)
	st.give(content)
	return el, nil
}

// appendContent realizes XQuery constructor content: attribute items set
// attributes, nodes are attached as they are — shared with wherever they
// came from, not copied — and adjacent atomics join into one
// space-separated text node. The child list is sized once, for every
// child the content makes.
func appendContent(el *xmldom.Node, content Sequence) {
	el.Children = slices.Grow(el.Children, childCount(content))
	for i := 0; i < len(content); i++ {
		switch v := content[i].(type) {
		case AttrItem:
			el.SetAttr(v.Name, v.Value)
		case *xmldom.Node:
			if v.Type == xmldom.DocumentNode {
				el.Children = append(el.Children, v.Children...)
			} else {
				el.AppendChild(v)
			}
		default:
			run := i + 1
			for run < len(content) && isAtomic(content[run]) {
				run++
			}
			el.AppendChild(xmldom.NewText(joinAtomics(content[i:run])))
			i = run - 1
		}
	}
}

// childCount is the number of children appendContent makes of content.
func childCount(content Sequence) int {
	n, inRun := 0, false
	for _, it := range content {
		switch v := it.(type) {
		case AttrItem:
		case *xmldom.Node:
			if v.Type == xmldom.DocumentNode {
				n += len(v.Children)
			} else {
				n++
			}
		default:
			if !inRun {
				n++ // a run of adjacent atomics is one text node
			}
		}
		inRun = isAtomic(it)
	}
	return n
}

func isAtomic(it Item) bool {
	switch it.(type) {
	case AttrItem, *xmldom.Node:
		return false
	}
	return true
}

// joinAtomics is the string values of seq joined by single spaces, built in
// one sized pass.
func joinAtomics(seq Sequence) string {
	if len(seq) == 1 {
		return StringValue(seq[0])
	}
	return strings.Join(Strings(seq), " ")
}

// evalAttrParts is an attribute constructor's value: its parts'
// concatenation, built in one sized pass.
func evalAttrParts(parts []Expr, ctx *Context) (string, error) {
	var few [4]string
	vals := few[:0]
	for _, p := range parts {
		if lit, ok := p.(*Literal); ok {
			if s, isStr := lit.Val.(string); isStr {
				vals = append(vals, s)
				continue
			}
		}
		v, err := evalString(p, ctx)
		if err != nil {
			return "", err
		}
		vals = append(vals, v)
	}
	return strings.Join(vals, ""), nil
}

// --- temporal projections -----------------------------------------------

func evalIntervalProj(ip *IntervalProj, ctx *Context) (Sequence, error) {
	base, err := Eval(ip.E, ctx)
	if err != nil {
		return nil, err
	}
	from, err := evalTimeEndpoint(ip.From, ctx)
	if err != nil {
		return nil, err
	}
	to := from
	if ip.To != nil {
		to, err = evalTimeEndpoint(ip.To, ctx)
		if err != nil {
			return nil, err
		}
	}
	window := xtime.NewInterval(from, to)
	nodes := Nodes(base)
	projected := temporal.IntervalProjection(nodes, window, ctx.Static.Now, ctx.Static.Horizon, ctx.Static.Holes)
	out := FromNodes(projected)
	// non-node items pass through a projection untouched only if they are
	// dateTimes inside the window; others are dropped (projection is a
	// node operation)
	return out, nil
}

func evalTimeEndpoint(e Expr, ctx *Context) (xtime.DateTime, error) {
	v, lent, err := borrow(e, ctx)
	if err != nil {
		return xtime.DateTime{}, err
	}
	defer ctx.Static.give(lent)
	if len(v) == 0 {
		return xtime.DateTime{}, fmt.Errorf("xq: empty interval endpoint %s", e.String())
	}
	dt, ok := DateTimeValue(v[0])
	if !ok {
		return xtime.DateTime{}, fmt.Errorf("xq: interval endpoint %s is not a dateTime", e.String())
	}
	return dt, nil
}

func evalVersionProj(vp *VersionProj, ctx *Context) (Sequence, error) {
	base, err := Eval(vp.E, ctx)
	if err != nil {
		return nil, err
	}
	window := xtime.VersionInterval{}
	fromN, fromLast, err := evalVersionEndpoint(vp.From, ctx)
	if err != nil {
		return nil, err
	}
	window.From, window.FromLast = fromN, fromLast
	if vp.To == nil {
		window.To, window.ToLast = fromN, fromLast
	} else {
		toN, toLast, err := evalVersionEndpoint(vp.To, ctx)
		if err != nil {
			return nil, err
		}
		window.To, window.ToLast = toN, toLast
	}
	nodes := Nodes(base)
	projected := temporal.VersionProjection(nodes, window, ctx.Static.Now, ctx.Static.Horizon, ctx.Static.Holes)
	return FromNodes(projected), nil
}

func evalVersionEndpoint(e Expr, ctx *Context) (int, bool, error) {
	if _, ok := e.(*LastMarker); ok {
		return 0, true, nil
	}
	v, lent, err := borrow(e, ctx)
	if err != nil {
		return 0, false, err
	}
	defer ctx.Static.give(lent)
	if len(v) == 0 {
		return 0, false, fmt.Errorf("xq: empty version endpoint %s", e.String())
	}
	n := NumberValue(v[0])
	if math.IsNaN(n) {
		return 0, false, fmt.Errorf("xq: version endpoint %s is not a number", e.String())
	}
	return int(n), false, nil
}
