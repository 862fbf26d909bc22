package xq

import (
	"strings"

	"xcql/internal/xtime"
)

// Parse parses a query (XQuery subset plus the XCQL temporal extensions)
// into an expression tree.
func Parse(src string) (Expr, error) {
	p := &parser{lex: &lexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	var decls []FuncDecl
	for (p.isName("declare") || p.isName("define")) && p.peek().Kind == tokName && p.peek().Text == "function" {
		d, err := p.parseFuncDecl()
		if err != nil {
			return nil, err
		}
		decls = append(decls, d)
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if p.tok.Kind != tokEOF {
		return nil, p.lex.errf(p.tok.Pos, "unexpected %s after expression", p.tok)
	}
	if len(decls) > 0 {
		return &Module{Funcs: decls, Body: e}, nil
	}
	return e, nil
}

// parseFuncDecl parses "declare|define function name($p as type, …) as
// type { body } ;?". Sequence types (element()*, xs:integer, …) are
// accepted and ignored.
func (p *parser) parseFuncDecl() (FuncDecl, error) {
	if err := p.advance(); err != nil { // declare / define
		return FuncDecl{}, err
	}
	if err := p.expectName("function"); err != nil {
		return FuncDecl{}, err
	}
	if p.tok.Kind != tokName {
		return FuncDecl{}, p.lex.errf(p.tok.Pos, "expected function name, found %s", p.tok)
	}
	decl := FuncDecl{Name: p.tok.Text}
	if err := p.advance(); err != nil {
		return FuncDecl{}, err
	}
	if err := p.expectSym("("); err != nil {
		return FuncDecl{}, err
	}
	for !p.isSym(")") {
		if p.tok.Kind != tokVar {
			return FuncDecl{}, p.lex.errf(p.tok.Pos, "expected parameter, found %s", p.tok)
		}
		decl.Params = append(decl.Params, p.tok.Text)
		if err := p.advance(); err != nil {
			return FuncDecl{}, err
		}
		if err := p.skipSeqTypeAnnotation(); err != nil {
			return FuncDecl{}, err
		}
		if p.isSym(",") {
			if err := p.advance(); err != nil {
				return FuncDecl{}, err
			}
		}
	}
	if err := p.advance(); err != nil { // ")"
		return FuncDecl{}, err
	}
	if err := p.skipSeqTypeAnnotation(); err != nil {
		return FuncDecl{}, err
	}
	if err := p.expectSym("{"); err != nil {
		return FuncDecl{}, err
	}
	body, err := p.parseExpr()
	if err != nil {
		return FuncDecl{}, err
	}
	decl.Body = body
	if err := p.expectSym("}"); err != nil {
		return FuncDecl{}, err
	}
	if p.isSym(";") {
		if err := p.advance(); err != nil {
			return FuncDecl{}, err
		}
	}
	return decl, nil
}

// skipSeqTypeAnnotation consumes an optional "as <sequence type>" where
// the type is a (possibly prefixed) name, an optional "()" and an
// optional occurrence indicator (* + ?).
func (p *parser) skipSeqTypeAnnotation() error {
	if !p.isName("as") {
		return nil
	}
	if err := p.advance(); err != nil {
		return err
	}
	if p.tok.Kind != tokName && p.tok.Kind != tokDuration {
		return p.lex.errf(p.tok.Pos, "expected a type name after 'as'")
	}
	if err := p.advance(); err != nil {
		return err
	}
	// prefixed type names (xs:integer)
	if p.isSym(":") {
		if err := p.advance(); err != nil {
			return err
		}
		if p.tok.Kind != tokName && p.tok.Kind != tokDuration {
			return p.lex.errf(p.tok.Pos, "expected a local type name after ':'")
		}
		if err := p.advance(); err != nil {
			return err
		}
	}
	if p.isSym("(") {
		if err := p.advance(); err != nil {
			return err
		}
		if err := p.expectSym(")"); err != nil {
			return err
		}
	}
	if p.isSym("*") || p.isSym("+") || p.isSym("?") {
		if err := p.advance(); err != nil {
			return err
		}
	}
	return nil
}

// MustParse parses or panics; for literals in tests.
func MustParse(src string) Expr {
	e, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return e
}

type parser struct {
	lex *lexer
	tok Token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// peek returns the token after the current one without consuming input.
func (p *parser) peek() Token {
	saved := *p.lex
	t, err := p.lex.next()
	*p.lex = saved
	if err != nil {
		return Token{Kind: tokEOF}
	}
	return t
}

func (p *parser) isSym(s string) bool { return p.tok.Kind == tokSym && p.tok.Text == s }
func (p *parser) isName(s string) bool {
	return p.tok.Kind == tokName && p.tok.Text == s
}

func (p *parser) expectSym(s string) error {
	if !p.isSym(s) {
		return p.lex.errf(p.tok.Pos, "expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

func (p *parser) expectName(s string) error {
	if !p.isName(s) {
		return p.lex.errf(p.tok.Pos, "expected %q, found %s", s, p.tok)
	}
	return p.advance()
}

// parseExpr parses a comma sequence.
func (p *parser) parseExpr() (Expr, error) {
	first, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if !p.isSym(",") {
		return first, nil
	}
	items := []Expr{first}
	for p.isSym(",") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		items = append(items, e)
	}
	return &SeqExpr{Items: items}, nil
}

func (p *parser) parseExprSingle() (Expr, error) {
	if p.tok.Kind == tokName {
		switch p.tok.Text {
		case "for", "let":
			if p.peek().Kind == tokVar {
				return p.parseFLWOR()
			}
		case "some", "every":
			if p.peek().Kind == tokVar {
				return p.parseQuantified()
			}
		case "if":
			if pk := p.peek(); pk.Kind == tokSym && pk.Text == "(" {
				return p.parseIf()
			}
		}
	}
	return p.parseOr()
}

func (p *parser) parseFLWOR() (Expr, error) {
	fl := &FLWOR{}
	for {
		if p.isName("for") && p.peek().Kind == tokVar {
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				v := p.tok.Text
				if err := p.advance(); err != nil {
					return nil, err
				}
				posVar := ""
				if p.isName("at") {
					if err := p.advance(); err != nil {
						return nil, err
					}
					if p.tok.Kind != tokVar {
						return nil, p.lex.errf(p.tok.Pos, "expected position variable after 'at'")
					}
					posVar = p.tok.Text
					if err := p.advance(); err != nil {
						return nil, err
					}
				}
				if err := p.expectName("in"); err != nil {
					return nil, err
				}
				in, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, ForClause{Var: v, PosVar: posVar, In: in})
				// the paper omits commas between consecutive for bindings;
				// accept both `, $x in …` and a bare `$x in …`
				if p.isSym(",") && p.peek().Kind == tokVar {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				if p.tok.Kind == tokVar {
					continue
				}
				break
			}
			continue
		}
		if p.isName("let") && p.peek().Kind == tokVar {
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				v := p.tok.Text
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectSym(":="); err != nil {
					return nil, err
				}
				e, err := p.parseExprSingle()
				if err != nil {
					return nil, err
				}
				fl.Clauses = append(fl.Clauses, LetClause{Var: v, E: e})
				if p.isSym(",") && p.peek().Kind == tokVar {
					if err := p.advance(); err != nil {
						return nil, err
					}
					continue
				}
				break
			}
			continue
		}
		break
	}
	if len(fl.Clauses) == 0 {
		return nil, p.lex.errf(p.tok.Pos, "FLWOR needs at least one for/let clause")
	}
	if p.isName("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExprSingle()
		if err != nil {
			return nil, err
		}
		fl.Where = w
	}
	if p.isName("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectName("by"); err != nil {
			return nil, err
		}
		for {
			key, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			spec := OrderSpec{Key: key}
			if p.isName("descending") {
				spec.Descending = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			} else if p.isName("ascending") {
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			fl.OrderBy = append(fl.OrderBy, spec)
			if p.isSym(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectName("return"); err != nil {
		return nil, err
	}
	ret, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	fl.Return = ret
	return fl, nil
}

func (p *parser) parseQuantified() (Expr, error) {
	q := &Quantified{Every: p.tok.Text == "every"}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if p.tok.Kind != tokVar {
		return nil, p.lex.errf(p.tok.Pos, "expected variable after some/every")
	}
	q.Var = p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectName("in"); err != nil {
		return nil, err
	}
	in, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.In = in
	if err := p.expectName("satisfies"); err != nil {
		return nil, err
	}
	sat, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	q.Satisfies = sat
	return q, nil
}

func (p *parser) parseIf() (Expr, error) {
	if err := p.advance(); err != nil { // "if"
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if err := p.expectName("then"); err != nil {
		return nil, err
	}
	then, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	if err := p.expectName("else"); err != nil {
		return nil, err
	}
	els, err := p.parseExprSingle()
	if err != nil {
		return nil, err
	}
	return &If{Cond: cond, Then: then, Else: els}, nil
}

func (p *parser) parseOr() (Expr, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isName("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "or", L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseAnd() (Expr, error) {
	l, err := p.parseComparison()
	if err != nil {
		return nil, err
	}
	for p.isName("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseComparison()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: "and", L: l, R: r}
	}
	return l, nil
}

// comparison operators: general, value, and Allen interval comparisons.
var cmpNames = map[string]bool{
	"eq": true, "ne": true, "lt": true, "le": true, "gt": true, "ge": true,
	"before": true, "after": true, "meets": true, "overlaps": true,
	"during": true, "covers": true, "starts": true, "finishes": true,
}

func (p *parser) parseComparison() (Expr, error) {
	l, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	var op string
	if p.tok.Kind == tokSym {
		switch p.tok.Text {
		case "=", "!=", "<", "<=", ">", ">=":
			op = p.tok.Text
		}
	} else if p.tok.Kind == tokName && cmpNames[p.tok.Text] {
		op = p.tok.Text
	}
	if op == "" {
		return l, nil
	}
	if err := p.advance(); err != nil {
		return nil, err
	}
	r, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	return &BinOp{Op: op, L: l, R: r}, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	l, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for p.isSym("+") || p.isSym("-") {
		op := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseMultiplicative() (Expr, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		if p.isSym("*") {
			op = "*"
		} else if p.tok.Kind == tokName && (p.tok.Text == "div" || p.tok.Text == "idiv" || p.tok.Text == "mod") {
			op = p.tok.Text
		} else {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = &BinOp{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) parseUnary() (Expr, error) {
	if p.isSym("-") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &Unary{E: e}, nil
	}
	if p.isSym("+") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		return p.parseUnary()
	}
	return p.parsePath()
}

// parsePath parses an optional leading (/, //) and a primary followed by
// postfix operators: /step, //step, [pred], ?[interval], #[version].
func (p *parser) parsePath() (Expr, error) {
	var e Expr
	switch {
	case p.isSym("/"), p.isSym("//"):
		// root-anchored path: / == root(.)
		desc := p.isSym("//")
		if err := p.advance(); err != nil {
			return nil, err
		}
		e = &Call{Name: "root", Args: []Expr{&ContextItem{}}}
		step, err := p.parseStep(desc)
		if err != nil {
			return nil, err
		}
		e = appendStep(e, step)
	default:
		prim, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		e = prim
	}
	for {
		switch {
		case p.isSym("/"), p.isSym("//"):
			desc := p.isSym("//")
			if err := p.advance(); err != nil {
				return nil, err
			}
			step, err := p.parseStep(desc)
			if err != nil {
				return nil, err
			}
			e = appendStep(e, step)
		case p.isSym("["):
			pred, err := p.parsePredicate()
			if err != nil {
				return nil, err
			}
			e = appendPred(e, pred)
		case p.isSym("?") && p.peekIsSym("["):
			if err := p.advance(); err != nil {
				return nil, err
			}
			from, to, err := p.parseBracketPair()
			if err != nil {
				return nil, err
			}
			e = &IntervalProj{E: e, From: from, To: to}
		case p.isSym("#") && p.peekIsSym("["):
			if err := p.advance(); err != nil {
				return nil, err
			}
			from, to, err := p.parseBracketPair()
			if err != nil {
				return nil, err
			}
			e = &VersionProj{E: e, From: from, To: to}
		default:
			return e, nil
		}
	}
}

func (p *parser) peekIsSym(s string) bool {
	pk := p.peek()
	return pk.Kind == tokSym && pk.Text == s
}

// appendStep attaches a step to an existing Path or wraps e in a new one.
func appendStep(e Expr, s Step) Expr {
	if path, ok := e.(*Path); ok {
		path.Steps = append(path.Steps, s)
		return path
	}
	return &Path{Base: e, Steps: []Step{s}}
}

// appendPred attaches a predicate to the last step of a path, or wraps in
// a Filter for non-path expressions.
func appendPred(e Expr, pred Expr) Expr {
	if path, ok := e.(*Path); ok && len(path.Steps) > 0 {
		last := &path.Steps[len(path.Steps)-1]
		last.Preds = append(last.Preds, pred)
		return path
	}
	if f, ok := e.(*Filter); ok {
		f.Preds = append(f.Preds, pred)
		return f
	}
	return &Filter{Base: e, Preds: []Expr{pred}}
}

func (p *parser) parsePredicate() (Expr, error) {
	if err := p.expectSym("["); err != nil {
		return nil, err
	}
	pred, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("]"); err != nil {
		return nil, err
	}
	return pred, nil
}

// parseBracketPair parses "[a]" or "[a,b]" for interval and version
// projections; "last" becomes LastMarker.
func (p *parser) parseBracketPair() (from, to Expr, err error) {
	if err := p.expectSym("["); err != nil {
		return nil, nil, err
	}
	from, err = p.parseProjEndpoint()
	if err != nil {
		return nil, nil, err
	}
	if p.isSym(",") {
		if err := p.advance(); err != nil {
			return nil, nil, err
		}
		to, err = p.parseProjEndpoint()
		if err != nil {
			return nil, nil, err
		}
	}
	if err := p.expectSym("]"); err != nil {
		return nil, nil, err
	}
	return from, to, nil
}

func (p *parser) parseProjEndpoint() (Expr, error) {
	if p.isName("last") {
		if pk := p.peek(); !(pk.Kind == tokSym && pk.Text == "(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &LastMarker{}, nil
		}
	}
	return p.parseExprSingle()
}

// parseStep parses a path step after / or //.
func (p *parser) parseStep(descendant bool) (Step, error) {
	axis := AxisChild
	if descendant {
		axis = AxisDescendant
	}
	switch {
	case p.isSym("@"):
		if err := p.advance(); err != nil {
			return Step{}, err
		}
		if p.tok.Kind != tokName && p.tok.Kind != tokDuration && !p.isSym("*") {
			return Step{}, p.lex.errf(p.tok.Pos, "expected attribute name after '@'")
		}
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return Step{}, err
		}
		if descendant {
			return Step{}, p.lex.errf(p.tok.Pos, "//@attr is not supported")
		}
		return Step{Axis: AxisAttribute, Name: name}, nil
	case p.isSym("*"):
		if err := p.advance(); err != nil {
			return Step{}, err
		}
		return Step{Axis: axis, Name: "*"}, nil
	case p.isSym("."):
		if err := p.advance(); err != nil {
			return Step{}, err
		}
		return Step{Axis: AxisSelf, Name: "."}, nil
	case p.tok.Kind == tokName || p.tok.Kind == tokDuration:
		// tokDuration covers tags that happen to look like durations
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return Step{}, err
		}
		if name == "text" && p.isSym("(") {
			if err := p.advance(); err != nil {
				return Step{}, err
			}
			if err := p.expectSym(")"); err != nil {
				return Step{}, err
			}
			return Step{Axis: axis, Name: "text()"}, nil
		}
		return Step{Axis: axis, Name: name}, nil
	default:
		return Step{}, p.lex.errf(p.tok.Pos, "expected a path step, found %s", p.tok)
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	switch p.tok.Kind {
	case tokString:
		v := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return NewLiteral(v), nil
	case tokNumber:
		v := p.tok.Num
		if err := p.advance(); err != nil {
			return nil, err
		}
		return NewLiteral(v), nil
	case tokDateTime:
		dt, err := xtime.Parse(p.tok.Text)
		if err != nil {
			return nil, p.lex.errf(p.tok.Pos, "%v", err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return NewLiteral(dt), nil
	case tokDuration:
		d, err := xtime.ParseDuration(p.tok.Text)
		if err != nil {
			return nil, p.lex.errf(p.tok.Pos, "%v", err)
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
		return NewLiteral(d), nil
	case tokVar:
		name := p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &VarRef{Name: name}, nil
	case tokSym:
		switch p.tok.Text {
		case "(":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.isSym(")") { // empty sequence ()
				if err := p.advance(); err != nil {
					return nil, err
				}
				return &SeqExpr{}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			// keep the grouping for paths so a following predicate applies
			// to the whole sequence — (e/a)[1] is not e/a[1]
			if _, isPath := e.(*Path); isPath {
				return &Filter{Base: e}, nil
			}
			return e, nil
		case ".":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &ContextItem{}, nil
		case "@":
			// attribute step from context: @name
			step, err := p.parseStep(false)
			if err != nil {
				return nil, err
			}
			return &Path{Steps: []Step{step}}, nil
		case "*":
			if err := p.advance(); err != nil {
				return nil, err
			}
			return &Path{Steps: []Step{{Axis: AxisChild, Name: "*"}}}, nil
		case "<":
			return p.parseDirectCtor()
		}
	case tokName:
		name := p.tok.Text
		// keyword constructs
		switch name {
		case "element":
			if pk := p.peek(); pk.Kind == tokName || (pk.Kind == tokSym && pk.Text == "{") {
				return p.parseComputedElement()
			}
		case "attribute":
			if pk := p.peek(); pk.Kind == tokName {
				return p.parseComputedAttribute()
			}
		case "now":
			if pk := p.peek(); !(pk.Kind == tokSym && pk.Text == "(") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				return NewLiteral(xtime.Now()), nil
			}
		case "start":
			if pk := p.peek(); !(pk.Kind == tokSym && pk.Text == "(") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				return NewLiteral(xtime.Start()), nil
			}
		case "true", "false":
			if pk := p.peek(); pk.Kind == tokSym && pk.Text == "(" {
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
				return NewLiteral(name == "true"), nil
			}
		}
		if pk := p.peek(); pk.Kind == tokSym && pk.Text == "(" {
			return p.parseCall(name)
		}
		// bare name: child step from the context item
		if err := p.advance(); err != nil {
			return nil, err
		}
		if name == "text" && p.isSym("(") {
			// impossible here (handled by peek above), kept for clarity
			return nil, p.lex.errf(p.tok.Pos, "unexpected text()")
		}
		return &Path{Steps: []Step{{Axis: AxisChild, Name: name}}}, nil
	}
	return nil, p.lex.errf(p.tok.Pos, "unexpected %s", p.tok)
}

func (p *parser) parseCall(name string) (Expr, error) {
	if err := p.advance(); err != nil { // name
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	var args []Expr
	if !p.isSym(")") {
		for {
			a, err := p.parseExprSingle()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if p.isSym(",") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				continue
			}
			break
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if name == "stream" && len(args) == 1 {
		if lit, ok := args[0].(*Literal); ok {
			if s, ok := lit.Val.(string); ok {
				return &StreamRef{Name: s}, nil
			}
		}
	}
	return &Call{Name: name, Args: args}, nil
}

func (p *parser) parseComputedElement() (Expr, error) {
	if err := p.advance(); err != nil { // "element"
		return nil, err
	}
	ctor := &ElemCtor{}
	if p.tok.Kind == tokName {
		ctor.Name = p.tok.Text
		if err := p.advance(); err != nil {
			return nil, err
		}
	} else {
		if err := p.expectSym("{"); err != nil {
			return nil, err
		}
		ne, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym("}"); err != nil {
			return nil, err
		}
		ctor.NameExpr = ne
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	if !p.isSym("}") {
		content, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if seq, ok := content.(*SeqExpr); ok {
			ctor.Content = seq.Items
		} else {
			ctor.Content = []Expr{content}
		}
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	return ctor, nil
}

func (p *parser) parseComputedAttribute() (Expr, error) {
	if err := p.advance(); err != nil { // "attribute"
		return nil, err
	}
	if p.tok.Kind != tokName {
		return nil, p.lex.errf(p.tok.Pos, "expected attribute name")
	}
	name := p.tok.Text
	if err := p.advance(); err != nil {
		return nil, err
	}
	if err := p.expectSym("{"); err != nil {
		return nil, err
	}
	val, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("}"); err != nil {
		return nil, err
	}
	return &AttrCtorExpr{Name: name, Value: val}, nil
}

// --- direct element constructors -----------------------------------------

// parseDirectCtor parses <name attr="…">content</name> in raw mode,
// starting at the current "<" token.
func (p *parser) parseDirectCtor() (Expr, error) {
	p.lex.pos = p.tok.Pos // rewind to '<'
	e, err := p.rawElement()
	if err != nil {
		return nil, err
	}
	if err := p.advance(); err != nil { // refill token stream after raw mode
		return nil, err
	}
	return e, nil
}

// rawElement consumes an element from l.src starting at '<'.
func (p *parser) rawElement() (Expr, error) {
	l := p.lex
	if l.pos >= len(l.src) || l.src[l.pos] != '<' {
		return nil, l.errf(l.pos, "expected '<'")
	}
	l.pos++
	name := p.rawName()
	if name == "" {
		return nil, l.errf(l.pos, "expected element name")
	}
	ctor := &ElemCtor{Name: name}
	for {
		p.rawSkipSpace()
		if l.pos >= len(l.src) {
			return nil, l.errf(l.pos, "unterminated constructor <%s>", name)
		}
		if strings.HasPrefix(l.src[l.pos:], "/>") {
			l.pos += 2
			return ctor, nil
		}
		if l.src[l.pos] == '>' {
			l.pos++
			break
		}
		attr, err := p.rawAttr()
		if err != nil {
			return nil, err
		}
		ctor.Attrs = append(ctor.Attrs, attr)
	}
	// content until matching </name>
	for {
		if l.pos >= len(l.src) {
			return nil, l.errf(l.pos, "missing </%s>", name)
		}
		c := l.src[l.pos]
		switch {
		case strings.HasPrefix(l.src[l.pos:], "</"):
			l.pos += 2
			end := p.rawName()
			p.rawSkipSpace()
			if l.pos >= len(l.src) || l.src[l.pos] != '>' {
				return nil, l.errf(l.pos, "malformed end tag </%s", end)
			}
			l.pos++
			if end != name {
				return nil, l.errf(l.pos, "</%s> does not match <%s>", end, name)
			}
			return ctor, nil
		case strings.HasPrefix(l.src[l.pos:], "<!--"):
			idx := strings.Index(l.src[l.pos+4:], "-->")
			if idx < 0 {
				return nil, l.errf(l.pos, "unterminated comment in constructor")
			}
			l.pos += 4 + idx + 3
		case c == '<':
			child, err := p.rawElement()
			if err != nil {
				return nil, err
			}
			ctor.Content = append(ctor.Content, child)
		case c == '{':
			if strings.HasPrefix(l.src[l.pos:], "{{") {
				ctor.Content = append(ctor.Content, NewLiteral("{"))
				l.pos += 2
				continue
			}
			e, err := p.rawEmbeddedExpr()
			if err != nil {
				return nil, err
			}
			ctor.Content = append(ctor.Content, e)
		default:
			text, err := p.rawText()
			if err != nil {
				return nil, err
			}
			if strings.TrimSpace(text) != "" {
				ctor.Content = append(ctor.Content, NewLiteral(text))
			}
		}
	}
}

// rawEmbeddedExpr parses "{ Expr }" by switching back to token mode.
func (p *parser) rawEmbeddedExpr() (Expr, error) {
	l := p.lex
	l.pos++ // consume '{'
	if err := p.advance(); err != nil {
		return nil, err
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if !p.isSym("}") {
		return nil, l.errf(p.tok.Pos, "expected '}' after embedded expression, found %s", p.tok)
	}
	// resume raw mode right after the '}'
	l.pos = p.tok.Pos + 1
	return e, nil
}

// rawText scans character data up to the next markup, decoding entities;
// "}}" is the escape for '}'.
func (p *parser) rawText() (string, error) {
	l := p.lex
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == '<' || c == '{' {
			break
		}
		if c == '}' {
			if strings.HasPrefix(l.src[l.pos:], "}}") {
				b.WriteByte('}')
				l.pos += 2
				continue
			}
			return "", l.errf(l.pos, "unescaped '}' in constructor content")
		}
		if c == '&' {
			semi := strings.IndexByte(l.src[l.pos:], ';')
			if semi < 0 {
				return "", l.errf(l.pos, "unterminated entity")
			}
			dec, err := decodeEntity(l.src[l.pos+1 : l.pos+semi])
			if err != nil {
				return "", l.errf(l.pos, "%v", err)
			}
			b.WriteString(dec)
			l.pos += semi + 1
			continue
		}
		b.WriteByte(c)
		l.pos++
	}
	return b.String(), nil
}

func (p *parser) rawName() string {
	l := p.lex
	start := l.pos
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if isNameInner(c) || c == ':' || c == '-' || c == '.' || c == '_' {
			l.pos++
			continue
		}
		break
	}
	return l.src[start:l.pos]
}

func (p *parser) rawSkipSpace() {
	l := p.lex
	for l.pos < len(l.src) {
		switch l.src[l.pos] {
		case ' ', '\t', '\n', '\r':
			l.pos++
		default:
			return
		}
	}
}

// rawAttr parses name="parts", name='parts', or the unquoted form
// name={expr} seen in the paper's examples.
func (p *parser) rawAttr() (AttrCtor, error) {
	l := p.lex
	name := p.rawName()
	if name == "" {
		return AttrCtor{}, l.errf(l.pos, "expected attribute name")
	}
	p.rawSkipSpace()
	if l.pos >= len(l.src) || l.src[l.pos] != '=' {
		return AttrCtor{}, l.errf(l.pos, "attribute %q missing '='", name)
	}
	l.pos++
	p.rawSkipSpace()
	if l.pos < len(l.src) && l.src[l.pos] == '{' {
		e, err := p.rawEmbeddedExpr()
		if err != nil {
			return AttrCtor{}, err
		}
		return AttrCtor{Name: name, Parts: []Expr{e}}, nil
	}
	if l.pos >= len(l.src) || (l.src[l.pos] != '"' && l.src[l.pos] != '\'') {
		return AttrCtor{}, l.errf(l.pos, "attribute %q value must be quoted or {expr}", name)
	}
	quote := l.src[l.pos]
	l.pos++
	var parts []Expr
	var lit strings.Builder
	flush := func() {
		if lit.Len() > 0 {
			parts = append(parts, NewLiteral(lit.String()))
			lit.Reset()
		}
	}
	for {
		if l.pos >= len(l.src) {
			return AttrCtor{}, l.errf(l.pos, "unterminated value for attribute %q", name)
		}
		c := l.src[l.pos]
		switch {
		case c == quote:
			l.pos++
			flush()
			return AttrCtor{Name: name, Parts: parts}, nil
		case c == '{':
			if strings.HasPrefix(l.src[l.pos:], "{{") {
				lit.WriteByte('{')
				l.pos += 2
				continue
			}
			flush()
			e, err := p.rawEmbeddedExpr()
			if err != nil {
				return AttrCtor{}, err
			}
			parts = append(parts, e)
		case c == '}':
			if strings.HasPrefix(l.src[l.pos:], "}}") {
				lit.WriteByte('}')
				l.pos += 2
				continue
			}
			return AttrCtor{}, l.errf(l.pos, "unescaped '}' in attribute value")
		case c == '&':
			semi := strings.IndexByte(l.src[l.pos:], ';')
			if semi < 0 {
				return AttrCtor{}, l.errf(l.pos, "unterminated entity")
			}
			dec, err := decodeEntity(l.src[l.pos+1 : l.pos+semi])
			if err != nil {
				return AttrCtor{}, l.errf(l.pos, "%v", err)
			}
			lit.WriteString(dec)
			l.pos += semi + 1
		default:
			lit.WriteByte(c)
			l.pos++
		}
	}
}

func decodeEntity(ent string) (string, error) {
	switch ent {
	case "amp":
		return "&", nil
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "apos":
		return "'", nil
	case "quot":
		return `"`, nil
	}
	return "", errUnknownEntity(ent)
}

type errUnknownEntity string

func (e errUnknownEntity) Error() string { return "unknown entity &" + string(e) + ";" }
