package xcql

import (
	"fmt"
	"slices"

	"xcql/internal/tagstruct"
	"xcql/internal/xq"
)

// Intrinsic function names emitted by the translator, each call compiled
// into an Intrinsic, which says what it reads, which the Runtime evaluates
// and whose Op plan inspectors (internal/inc) classify an access by. The
// prefix keeps them out of the user namespace, and no query can spell
// them. The vocabulary is the same under every fragment plan: which index
// serves a call is the evaluation's access path (Mode.access), not the
// plan's text.
const (
	FnView    = "xcql:view"    // materialized temporal view (CaQ)
	FnRoot    = "xcql:root"    // root filler payload versions
	FnFillers = "xcql:fillers" // cross the holes of a child step
	FnByTSID  = "xcql:bytsid"  // all filler versions with a tsid (QaC+'s descendant step from the top)
	FnIProj   = "xcql:iproj"   // interval projection e?[t1,t2] over fragments
	FnVProj   = "xcql:vproj"   // version projection e#[v1,v2] over fragments
)

// typedTag is a (stream, tag) pair: the static type the translator tracks
// along rewritten expressions, mirroring "e : ts" in Figure 3.
type typedTag struct {
	stream string
	tag    *tagstruct.Tag
}

// typeSet is the set of possible tags an expression's items may have.
// Empty means unknown (constructed or atomic values), in which case path
// steps are left untranslated — they can only apply to materialized
// content, which carries no holes.
type typeSet []typedTag

// env carries variable types and the context-item type through the
// rewrite.
type env struct {
	vars map[string]typeSet
	ctx  typeSet
}

func (e env) bind(name string, ts typeSet) env {
	nv := make(map[string]typeSet, len(e.vars)+1)
	for k, v := range e.vars {
		nv[k] = v
	}
	nv[name] = ts
	return env{vars: nv, ctx: e.ctx}
}

func (e env) withCtx(ts typeSet) env { return env{vars: e.vars, ctx: ts} }

// compiler performs the Figure-3 schema-based translation for one mode.
type compiler struct {
	rt      *Runtime
	mode    Mode
	streams map[string]*tagstruct.Structure
	// docTags holds, per stream, the synthetic "#document" tag above the
	// root: stream(x) evaluates to a document node so queries can write
	// stream(x)/rootName/... exactly as the paper does.
	docTags map[string]*tagstruct.Tag
	// order lists the streams the query names, in first-reference order.
	order []string
}

// docTag returns (creating on first use) the synthetic document tag of a
// stream. Its single child is the structure root; it is never fragmented.
func (c *compiler) docTag(stream string) *tagstruct.Tag {
	if c.docTags == nil {
		c.docTags = make(map[string]*tagstruct.Tag)
	}
	if t, ok := c.docTags[stream]; ok {
		return t
	}
	s := c.streams[stream]
	t := &tagstruct.Tag{Name: "#document", Type: tagstruct.Snapshot, Children: []*tagstruct.Tag{s.Root}}
	c.docTags[stream] = t
	return t
}

// isStreamTop reports whether the tag denotes the whole stream (the
// synthetic document tag or the root), the precondition for the by-tsid
// shortcut.
func (c *compiler) isStreamTop(tt typedTag) bool {
	s := c.streams[tt.stream]
	return s != nil && (tt.tag == s.Root || tt.tag == c.docTags[tt.stream])
}

// translate translates an XCQL expression into an engine expression for
// the given mode over the streams registered on rt, which evaluates its
// intrinsics; a query referencing an unregistered stream is rejected at
// compile time. named lists the streams the query references, in
// first-reference order: the scope its evaluations resolve holes in.
func (rt *Runtime) translate(e xq.Expr, mode Mode) (plan xq.Expr, named []string, err error) {
	c := &compiler{rt: rt, mode: mode, streams: rt.Structures()}
	plan, _, err = c.rewrite(e, env{vars: map[string]typeSet{}})
	if err == nil && bareReads {
		markBare(plan)
	}
	return plan, c.order, err
}

// call is a call to intrinsic op on stream over args, reading tsids.
func (c *compiler) call(op, stream string, args []xq.Expr, tsids ...int) *xq.Call {
	return (&Intrinsic{Op: op, Stream: stream, TSIDs: tsids, rt: c.rt}).call(args...)
}

func (c *compiler) rewrite(e xq.Expr, en env) (xq.Expr, typeSet, error) {
	switch ex := e.(type) {
	case *xq.Literal, *xq.LastMarker:
		return e, nil, nil
	case *xq.VarRef:
		return e, en.vars[ex.Name], nil
	case *xq.ContextItem:
		return e, en.ctx, nil
	case *xq.StreamRef:
		if _, ok := c.streams[ex.Name]; !ok {
			return nil, nil, fmt.Errorf("xcql: unknown stream %q", ex.Name)
		}
		if c.docTags[ex.Name] == nil {
			// docTag creates the tag below: none yet is a first reference
			c.order = append(c.order, ex.Name)
		}
		ts := typeSet{{stream: ex.Name, tag: c.docTag(ex.Name)}}
		if c.mode == CaQ {
			return c.call(FnView, ex.Name, nil), ts, nil
		}
		return c.call(FnRoot, ex.Name, nil), ts, nil
	case *xq.SeqExpr:
		out := &xq.SeqExpr{Items: make([]xq.Expr, len(ex.Items))}
		var union typeSet
		for i, it := range ex.Items {
			ri, ts, err := c.rewrite(it, en)
			if err != nil {
				return nil, nil, err
			}
			out.Items[i] = ri
			union = append(union, ts...)
		}
		return out, union, nil
	case *xq.Path:
		return c.rewritePath(ex, en)
	case *xq.Filter:
		base, ts, err := c.rewrite(ex.Base, en)
		if err != nil {
			return nil, nil, err
		}
		preds, err := c.rewritePreds(ex.Preds, en.withCtx(ts))
		if err != nil {
			return nil, nil, err
		}
		return &xq.Filter{Base: base, Preds: preds}, ts, nil
	case *xq.BinOp:
		l, _, err := c.rewrite(ex.L, en)
		if err != nil {
			return nil, nil, err
		}
		r, _, err := c.rewrite(ex.R, en)
		if err != nil {
			return nil, nil, err
		}
		return &xq.BinOp{Op: ex.Op, L: l, R: r}, nil, nil
	case *xq.Unary:
		inner, _, err := c.rewrite(ex.E, en)
		if err != nil {
			return nil, nil, err
		}
		return &xq.Unary{E: inner}, nil, nil
	case *xq.If:
		cond, _, err := c.rewrite(ex.Cond, en)
		if err != nil {
			return nil, nil, err
		}
		then, ts1, err := c.rewrite(ex.Then, en)
		if err != nil {
			return nil, nil, err
		}
		els, ts2, err := c.rewrite(ex.Else, en)
		if err != nil {
			return nil, nil, err
		}
		return &xq.If{Cond: cond, Then: then, Else: els}, append(ts1, ts2...), nil
	case *xq.FLWOR:
		return c.rewriteFLWOR(ex, en)
	case *xq.Quantified:
		in, ts, err := c.rewrite(ex.In, en)
		if err != nil {
			return nil, nil, err
		}
		sat, _, err := c.rewrite(ex.Satisfies, en.bind(ex.Var, ts))
		if err != nil {
			return nil, nil, err
		}
		return &xq.Quantified{Every: ex.Every, Var: ex.Var, In: in, Satisfies: sat}, nil, nil
	case *xq.Call:
		out := &xq.Call{Name: ex.Name, Args: make([]xq.Expr, len(ex.Args)), Callee: ex.Callee}
		for i, a := range ex.Args {
			ra, _, err := c.rewrite(a, en)
			if err != nil {
				return nil, nil, err
			}
			out.Args[i] = ra
		}
		return out, nil, nil
	case *xq.ElemCtor:
		out := &xq.ElemCtor{Name: ex.Name}
		if ex.NameExpr != nil {
			ne, _, err := c.rewrite(ex.NameExpr, en)
			if err != nil {
				return nil, nil, err
			}
			out.NameExpr = ne
		}
		for _, a := range ex.Attrs {
			parts := make([]xq.Expr, len(a.Parts))
			for i, p := range a.Parts {
				rp, _, err := c.rewrite(p, en)
				if err != nil {
					return nil, nil, err
				}
				parts[i] = rp
			}
			out.Attrs = append(out.Attrs, xq.AttrCtor{Name: a.Name, Parts: parts})
		}
		for _, ce := range ex.Content {
			rc, _, err := c.rewrite(ce, en)
			if err != nil {
				return nil, nil, err
			}
			out.Content = append(out.Content, rc)
		}
		return out, nil, nil
	case *xq.AttrCtorExpr:
		v, _, err := c.rewrite(ex.Value, en)
		if err != nil {
			return nil, nil, err
		}
		return &xq.AttrCtorExpr{Name: ex.Name, Value: v}, nil, nil
	case *xq.Module:
		out := &xq.Module{Funcs: make([]xq.FuncDecl, 0, len(ex.Funcs))}
		for _, fd := range ex.Funcs {
			// parameters have unknown static type; paths over fragments
			// inside user functions therefore only work on materialized
			// content, which is the paper's model too (its declared
			// functions operate on get_fillers results)
			body, _, err := c.rewrite(fd.Body, en)
			if err != nil {
				return nil, nil, err
			}
			out.Funcs = append(out.Funcs, xq.FuncDecl{Name: fd.Name, Params: fd.Params, Body: body})
		}
		body, ts, err := c.rewrite(ex.Body, en)
		if err != nil {
			return nil, nil, err
		}
		out.Body = body
		return out, ts, nil
	case *xq.IntervalProj:
		return c.rewriteIntervalProj(ex, en)
	case *xq.VersionProj:
		return c.rewriteVersionProj(ex, en)
	default:
		return nil, nil, fmt.Errorf("xcql: cannot translate %T", e)
	}
}

func (c *compiler) rewriteFLWOR(fl *xq.FLWOR, en env) (xq.Expr, typeSet, error) {
	out := &xq.FLWOR{}
	cur := en
	for _, cl := range fl.Clauses {
		switch clause := cl.(type) {
		case xq.ForClause:
			in, ts, err := c.rewrite(clause.In, cur)
			if err != nil {
				return nil, nil, err
			}
			out.Clauses = append(out.Clauses, xq.ForClause{Var: clause.Var, PosVar: clause.PosVar, In: in})
			cur = cur.bind(clause.Var, ts)
			if clause.PosVar != "" {
				cur = cur.bind(clause.PosVar, nil)
			}
		case xq.LetClause:
			le, ts, err := c.rewrite(clause.E, cur)
			if err != nil {
				return nil, nil, err
			}
			out.Clauses = append(out.Clauses, xq.LetClause{Var: clause.Var, E: le})
			cur = cur.bind(clause.Var, ts)
		}
	}
	if fl.Where != nil {
		clauses, where := pushWhere(out.Clauses, fl.Where, cur.vars)
		out.Clauses = clauses
		if where != nil {
			w, _, err := c.rewrite(where, cur)
			if err != nil {
				return nil, nil, err
			}
			out.Where = w
		}
	}
	for _, spec := range fl.OrderBy {
		k, _, err := c.rewrite(spec.Key, cur)
		if err != nil {
			return nil, nil, err
		}
		out.OrderBy = append(out.OrderBy, xq.OrderSpec{Key: k, Descending: spec.Descending})
	}
	ret, ts, err := c.rewrite(fl.Return, cur)
	if err != nil {
		return nil, nil, err
	}
	out.Return = ret
	return out, ts, nil
}

func (c *compiler) rewritePreds(preds []xq.Expr, en env) ([]xq.Expr, error) {
	out := make([]xq.Expr, len(preds))
	for i, p := range preds {
		rp, _, err := c.rewrite(p, en)
		if err != nil {
			return nil, err
		}
		out[i] = rp
	}
	return out, nil
}

// rewritePath is the heart of Figure 3: each step consults the tag
// structure and either stays a plain step (snapshot children) or becomes a
// hole-crossing fillers call (temporal/event children).
func (c *compiler) rewritePath(p *xq.Path, en env) (xq.Expr, typeSet, error) {
	var cur xq.Expr
	var ts typeSet
	if p.Base != nil {
		b, bts, err := c.rewrite(p.Base, en)
		if err != nil {
			return nil, nil, err
		}
		cur, ts = b, bts
	} else {
		cur, ts = &xq.ContextItem{}, en.ctx
	}
	for _, step := range p.Steps {
		next, nts, err := c.rewriteStep(cur, ts, step, en)
		if err != nil {
			return nil, nil, err
		}
		cur, ts = next, nts
	}
	return cur, ts, nil
}

func (c *compiler) rewriteStep(base xq.Expr, baseTS typeSet, step xq.Step, en env) (xq.Expr, typeSet, error) {
	// CaQ and untyped bases: keep the plain step (materialized content
	// carries no holes). Attribute and self steps never cross holes.
	if c.mode == CaQ || len(baseTS) == 0 || step.Axis == xq.AxisAttribute || step.Axis == xq.AxisSelf || step.Name == "text()" {
		preds, err := c.rewritePreds(step.Preds, en.withCtx(c.childTypes(baseTS, step)))
		if err != nil {
			return nil, nil, err
		}
		out := appendPathStep(base, xq.Step{Axis: step.Axis, Name: step.Name, Preds: preds})
		return out, c.childTypes(baseTS, step), nil
	}
	switch step.Axis {
	case xq.AxisChild:
		return c.rewriteChildStep(base, baseTS, step, en)
	case xq.AxisDescendant:
		return c.rewriteDescendantStep(base, baseTS, step, en)
	default:
		return nil, nil, fmt.Errorf("xcql: unsupported axis in step %s", step)
	}
}

// childTypes computes the static type of a child/descendant step result.
func (c *compiler) childTypes(baseTS typeSet, step xq.Step) typeSet {
	var out typeSet
	for _, tt := range baseTS {
		switch step.Axis {
		case xq.AxisChild:
			for _, child := range tt.tag.Children {
				if step.Name == "*" || child.Name == step.Name {
					out = append(out, typedTag{stream: tt.stream, tag: child})
				}
			}
		case xq.AxisDescendant:
			s := c.streams[tt.stream]
			if s == nil {
				continue
			}
			for _, tag := range s.NamedUnder(tt.tag, step.Name) {
				out = append(out, typedTag{stream: tt.stream, tag: tag})
			}
		}
	}
	return out
}

// rewriteChildStep implements e/A: snapshot children stay a direct
// projection, fragmented children become get_fillers calls (Figure 3).
func (c *compiler) rewriteChildStep(base xq.Expr, baseTS typeSet, step xq.Step, en env) (xq.Expr, typeSet, error) {
	var pieces []xq.Expr
	var outTS typeSet
	// group identical child resolutions across the base type set; in
	// practice base sets are small (usually one tag). Plain (inline) steps
	// are emitted per child *name*, never as a raw "*" step, so <hole>
	// placeholders in raw fragments are never selected.
	seenPlain := map[string]bool{}
	for _, tt := range baseTS {
		for _, child := range tt.tag.Children {
			if step.Name != "*" && child.Name != step.Name {
				continue
			}
			outTS = append(outTS, typedTag{stream: tt.stream, tag: child})
			if child.IsFragmented() {
				pieces = append(pieces, c.call(FnFillers, tt.stream, []xq.Expr{base}, child.ID))
			} else if !seenPlain[child.Name] {
				seenPlain[child.Name] = true
				pieces = append(pieces, appendPathStep(base, xq.Step{Axis: xq.AxisChild, Name: child.Name}))
			}
		}
	}
	if len(pieces) == 0 {
		// the tag structure has no such child: statically empty
		return &xq.SeqExpr{}, nil, nil
	}
	return c.filterPieces(pieces, outTS, step.Preds, en, true)
}

// filterPieces closes a rewritten step: its pieces in sequence, under the
// step's predicates — the leading ones pushed below the pieces where those
// are access calls, the rest applied by the evaluator: per parent, on the
// piece itself (eachParent), when the step is a child step of one piece and
// a predicate counts positions; else over the pieces' whole output, which
// is the same thing when none does. A step of several pieces — a wildcard,
// a base of several tags — and a descendant step's chains are left to the
// whole output.
func (c *compiler) filterPieces(pieces []xq.Expr, ts typeSet, preds []xq.Expr, en env, child bool) (xq.Expr, typeSet, error) {
	pieces, preds = pushStepPreds(pieces, ts, preds)
	perParent := child && len(pieces) == 1 && slices.ContainsFunc(preds, positional)
	var out xq.Expr
	if len(pieces) == 1 {
		out = pieces[0]
	} else {
		out = &xq.SeqExpr{Items: pieces}
	}
	preds, err := c.rewritePreds(preds, en.withCtx(ts))
	if err != nil {
		return nil, nil, err
	}
	switch {
	case len(preds) == 0:
	case perParent:
		out = eachParent(out, preds)
	default:
		out = &xq.Filter{Base: out, Preds: preds}
	}
	return out, ts, nil
}

// rewriteDescendantStep implements e//A by expanding the tag structure's
// valid paths (the wildcard expansion of §4.1). Under QaC+,
// when the base is the whole stream, the expansion collapses to one
// by-tsid fetch.
func (c *compiler) rewriteDescendantStep(base xq.Expr, baseTS typeSet, step xq.Step, en env) (xq.Expr, typeSet, error) {
	var outTS typeSet
	var pieces []xq.Expr
	for _, tt := range baseTS {
		s := c.streams[tt.stream]
		if s == nil {
			continue
		}
		targets := s.NamedUnder(tt.tag, step.Name)
		if c.mode == QaCPlus && c.isStreamTop(tt) {
			// whole-stream descendant: fetch fragmented targets directly by
			// tsid; purely-snapshot targets still need path chains
			var tsids []int
			for _, tag := range targets {
				outTS = append(outTS, typedTag{stream: tt.stream, tag: tag})
				if tag.IsFragmented() {
					tsids = append(tsids, tag.ID)
				} else {
					chainExpr, err := c.buildChain(base, tt, tag)
					if err != nil {
						return nil, nil, err
					}
					pieces = append(pieces, chainExpr)
				}
			}
			if len(tsids) > 0 {
				pieces = append(pieces, c.call(FnByTSID, tt.stream, nil, tsids...))
			}
			continue
		}
		for _, tag := range targets {
			outTS = append(outTS, typedTag{stream: tt.stream, tag: tag})
			chainExpr, err := c.buildChain(base, tt, tag)
			if err != nil {
				return nil, nil, err
			}
			pieces = append(pieces, chainExpr)
		}
	}
	if len(pieces) == 0 {
		return &xq.SeqExpr{}, nil, nil
	}
	return c.filterPieces(pieces, outTS, step.Preds, en, false)
}

// buildChain rewrites the unique tag-structure path from base's tag down
// to target as a chain of child resolutions, crossing holes where needed.
func (c *compiler) buildChain(base xq.Expr, from typedTag, target *tagstruct.Tag) (xq.Expr, error) {
	// collect the tag path from `from.tag` (exclusive) to target
	var chain []*tagstruct.Tag
	for t := target; t != nil && t != from.tag; t = t.Parent {
		chain = append(chain, t)
	}
	// reverse
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	cur := base
	for _, tag := range chain {
		if tag.IsFragmented() {
			cur = c.call(FnFillers, from.stream, []xq.Expr{cur}, tag.ID)
		} else {
			cur = appendPathStep(cur, xq.Step{Axis: xq.AxisChild, Name: tag.Name})
		}
	}
	return cur, nil
}

func appendPathStep(base xq.Expr, step xq.Step) xq.Expr {
	if p, ok := base.(*xq.Path); ok {
		steps := make([]xq.Step, len(p.Steps)+1)
		copy(steps, p.Steps)
		steps[len(p.Steps)] = step
		return &xq.Path{Base: p.Base, Steps: steps}
	}
	if _, ok := base.(*xq.ContextItem); ok {
		return &xq.Path{Steps: []xq.Step{step}}
	}
	return &xq.Path{Base: base, Steps: []xq.Step{step}}
}

// rewriteIntervalProj compiles e?[tb,te]. When the inner expression's
// stream is known the projection becomes an intrinsic call bound to that
// stream's store so holes are crossed during slicing (§6's
// interval_projection) — or, when e is a step's read, that read's lifespan
// bound (pushSpan); otherwise the engine's native projection over
// materialized content is kept.
func (c *compiler) rewriteIntervalProj(ip *xq.IntervalProj, en env) (xq.Expr, typeSet, error) {
	inner, ts, err := c.rewrite(ip.E, en)
	if err != nil {
		return nil, nil, err
	}
	from, _, err := c.rewrite(ip.From, en)
	if err != nil {
		return nil, nil, err
	}
	var to xq.Expr
	if ip.To != nil {
		to, _, err = c.rewrite(ip.To, en)
		if err != nil {
			return nil, nil, err
		}
	}
	if c.mode != CaQ {
		if stream, single := singleStream(ts); single {
			if to == nil {
				to = from
			}
			if pushed := pushSpan(FnIProj, inner, from, to); pushed != nil {
				return pushed, ts, nil
			}
			return c.call(FnIProj, stream, []xq.Expr{inner, from, to}), ts, nil
		}
	}
	return &xq.IntervalProj{E: inner, From: from, To: to}, ts, nil
}

func (c *compiler) rewriteVersionProj(vp *xq.VersionProj, en env) (xq.Expr, typeSet, error) {
	inner, ts, err := c.rewrite(vp.E, en)
	if err != nil {
		return nil, nil, err
	}
	// rewriteEnd keeps LastMarker symbolic for the native form and spells
	// it as the string "last" for the intrinsic call form.
	rewriteEnd := func(e xq.Expr, forCall bool) (xq.Expr, error) {
		if e == nil {
			return nil, nil
		}
		if _, ok := e.(*xq.LastMarker); ok {
			if forCall {
				return xq.NewLiteral("last"), nil
			}
			return e, nil
		}
		r, _, err := c.rewrite(e, en)
		return r, err
	}
	if c.mode != CaQ {
		if stream, single := singleStream(ts); single {
			from, err := rewriteEnd(vp.From, true)
			if err != nil {
				return nil, nil, err
			}
			to, err := rewriteEnd(vp.To, true)
			if err != nil {
				return nil, nil, err
			}
			if to == nil {
				to = from
			}
			if pushed := pushSpan(FnVProj, inner, from, to); pushed != nil {
				return pushed, ts, nil
			}
			return c.call(FnVProj, stream, []xq.Expr{inner, from, to}), ts, nil
		}
	}
	from, err := rewriteEnd(vp.From, false)
	if err != nil {
		return nil, nil, err
	}
	to, err := rewriteEnd(vp.To, false)
	if err != nil {
		return nil, nil, err
	}
	return &xq.VersionProj{E: inner, From: from, To: to}, ts, nil
}

// singleStream reports whether every tag in the set belongs to one stream.
func singleStream(ts typeSet) (string, bool) {
	if len(ts) == 0 {
		return "", false
	}
	stream := ts[0].stream
	for _, tt := range ts[1:] {
		if tt.stream != stream {
			return "", false
		}
	}
	return stream, true
}
