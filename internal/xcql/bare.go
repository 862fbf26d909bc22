package xcql

import "xcql/internal/xq"

// Bare tops. get_fillers returns each version "annotated with its
// lifespan", and a read builds a new top element per version for the two
// stamps alone (fragment.Read.Bare), so a read whose consumers only
// navigate through the top hands out the stored payload instead: its
// Intrinsic is Bare, which markBare decides and the plan spells as a
// trailing tops=bare. It is pushdown's reasoning (pushed) applied to a
// read's consumers: which tops are built changes, never what is returned.

// bareReads turns the marking pass on; tests turn it off to compare.
var bareReads = true

// use is how an expression's value is consumed: observed (the zero
// value), only navigated — the base of a path whose first step is a child
// step or a named attribute step, or the nodes a hole crossing reads — or
// bound to a for or let variable, whose references decide.
type use struct {
	nav bool
	b   *binding
}

// binding is a for or let variable: observed once any reference to it is,
// and then so is every binding whose references it was bound to.
type binding struct {
	observed bool
	sources  []*binding
}

func (b *binding) observe() {
	if b.observed {
		return
	}
	b.observed = true
	for _, s := range b.sources {
		s.observe()
	}
}

// bareMarker is the marking pass over one plan: the variables in scope
// and every access call's consumers, one entry per place it occurs.
type bareMarker struct {
	scope []scoped
	uses  []callUse
}

type callUse struct {
	in *Intrinsic
	u  use
}

// scoped is a variable in scope; b is nil for one the pass does not track
// (a quantifier's, a function parameter, a positional variable).
type scoped struct {
	name string
	b    *binding
}

// markBare marks Bare every xcql:fillers and xcql:bytsid call of plan whose
// every consumer — every place its value reaches, the call's own pushed
// filter and per-parent list included — is one of:
//
//   - the base of a path whose first step is a child step (an element
//     name, * or text()) or an attribute step naming anything but vtFrom,
//     vtTo or *: what either reaches is the payload's, stamped or not;
//   - the node argument of an xcql:fillers call: a hole crossing reads the
//     holes and inline children alone (which is also the read-ahead's
//     case);
//   - a for or let variable whose every reference is one of these.
//
// A pushed filter never reads a stamp (pushable). A per-parent list that
// the read does not serve whole is evaluated on the tops and filters them
// after the read, and so keeps them stamped; every variable its predicates
// name is observed, as any predicate's is. Everything else observes: a
// call's result returned or put in a constructor, vtFrom() and vtTo(),
// projections, @*, is and union, filter expressions and every function
// argument. plan is a new translation, its intrinsics its own: a marked
// one is marked in place, and a call the translator shares between two
// pieces is marked only when every occurrence may be.
func markBare(plan xq.Expr) {
	var m bareMarker
	m.walk(plan, use{})
	for _, cu := range m.uses {
		cu.in.Bare = m.bare(cu.in)
	}
}

// bare reports that access call in, consumed as its uses say, may return
// bare tops.
func (m *bareMarker) bare(in *Intrinsic) bool {
	if in.each != nil && len(in.each.rest()) > 0 {
		return false
	}
	if in.span != nil && in.span.versions {
		// what lies below a version is projected to the version's
		// lifespan, which only its stamps say (below)
		return false
	}
	for _, cu := range m.uses {
		if cu.in == in && !cu.u.nav && (cu.u.b == nil || cu.u.b.observed) {
			return false
		}
	}
	return true
}

func (m *bareMarker) walk(e xq.Expr, u use) {
	switch ex := e.(type) {
	case nil, *xq.LastMarker, *xq.ContextItem, *xq.StreamRef, *xq.Literal:
	case *xq.VarRef:
		for i := len(m.scope) - 1; i >= 0; i-- {
			if m.scope[i].name != ex.Name {
				continue
			}
			switch b := m.scope[i].b; {
			case b == nil || u.nav:
			case u.b != nil:
				u.b.sources = append(u.b.sources, b)
				if u.b.observed {
					b.observe()
				}
			default:
				b.observe()
			}
			return
		}
	case *xq.Call:
		in := readCall(ex)
		if in != nil {
			m.uses = append(m.uses, callUse{in, u})
		}
		for _, a := range ex.Args {
			m.walk(a, use{nav: in != nil && in.Op == FnFillers})
		}
		if in != nil && in.each != nil {
			// a per-parent list is the child step's predicates, which may
			// read any variable in scope
			m.walkAll(in.each.preds)
		}
		if in != nil && in.span != nil {
			// and so may a bound's ends
			m.walkAll([]xq.Expr{in.span.from, in.span.to})
		}
	case *xq.Path:
		m.walk(ex.Base, use{nav: len(ex.Steps) > 0 && navigates(ex.Steps[0])})
		for _, s := range ex.Steps {
			m.walkAll(s.Preds)
		}
	case *xq.FLWOR:
		depth := len(m.scope)
		for _, cl := range ex.Clauses {
			switch c := cl.(type) {
			case xq.ForClause:
				b := &binding{}
				m.walk(c.In, use{b: b})
				m.scope = append(m.scope, scoped{c.Var, b})
				if c.PosVar != "" {
					m.scope = append(m.scope, scoped{name: c.PosVar})
				}
			case xq.LetClause:
				b := &binding{}
				m.walk(c.E, use{b: b})
				m.scope = append(m.scope, scoped{c.Var, b})
			}
		}
		m.walk(ex.Where, use{})
		for _, spec := range ex.OrderBy {
			m.walk(spec.Key, use{})
		}
		m.walk(ex.Return, use{})
		m.scope = m.scope[:depth]
	case *xq.Quantified:
		m.walk(ex.In, use{})
		m.scope = append(m.scope, scoped{name: ex.Var})
		m.walk(ex.Satisfies, use{})
		m.scope = m.scope[:len(m.scope)-1]
	case *xq.Module:
		outer := m.scope
		for _, fd := range ex.Funcs {
			// a function body sees its parameters and nothing else
			m.scope = nil
			for _, p := range fd.Params {
				m.scope = append(m.scope, scoped{name: p})
			}
			m.walk(fd.Body, use{})
		}
		m.scope = outer
		m.walk(ex.Body, use{})
	case *xq.SeqExpr:
		m.walkAll(ex.Items)
	case *xq.Filter:
		m.walk(ex.Base, use{})
		m.walkAll(ex.Preds)
	case *xq.BinOp:
		m.walk(ex.L, use{})
		m.walk(ex.R, use{})
	case *xq.Unary:
		m.walk(ex.E, use{})
	case *xq.If:
		m.walkAll([]xq.Expr{ex.Cond, ex.Then, ex.Else})
	case *xq.ElemCtor:
		m.walk(ex.NameExpr, use{})
		for _, a := range ex.Attrs {
			m.walkAll(a.Parts)
		}
		m.walkAll(ex.Content)
	case *xq.AttrCtorExpr:
		m.walk(ex.Value, use{})
	case *xq.IntervalProj:
		m.walkAll([]xq.Expr{ex.E, ex.From, ex.To})
	case *xq.VersionProj:
		m.walkAll([]xq.Expr{ex.E, ex.From, ex.To})
	}
}

// walkAll walks es, each observed.
func (m *bareMarker) walkAll(es []xq.Expr) {
	for _, e := range es {
		m.walk(e, use{})
	}
}

// navigates reports that a path's first step reaches only what a top and
// its stored payload have in common: its children, or an attribute other
// than the stamps.
func navigates(s xq.Step) bool {
	switch s.Axis {
	case xq.AxisChild:
		return true
	case xq.AxisAttribute:
		return s.Name != "vtFrom" && s.Name != "vtTo" && s.Name != "*"
	}
	return false
}
