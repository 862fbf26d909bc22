package xcql_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql/internal/genstore"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
	"xcql/internal/xtime"
)

// lawWindow is an interval projection's window as a query spells it: two
// instants, or an instant and now (open).
type lawWindow struct {
	from, to time.Time
	open     bool
}

func (w lawWindow) String() string {
	to := "now"
	if !w.open {
		to = w.to.Format(xtime.Layout)
	}
	return "?[" + w.from.Format(xtime.Layout) + "," + to + "]"
}

// meet is the window ?[max(a,c),min(b,d)] of w and o at the instant at,
// and false where min(b,d) is a concrete instant equal to now: its spelling
// would decide whether a clipped lifespan ends "now" or at that instant.
func (w lawWindow) meet(o lawWindow, at time.Time) (lawWindow, bool) {
	m := lawWindow{from: w.from}
	if o.from.After(m.from) {
		m.from = o.from
	}
	switch {
	case w.open && o.open:
		m.open = true
	case w.open || o.open:
		to := w.to
		if w.open {
			to = o.to
		}
		if to.Equal(at) {
			return m, false
		}
		m.to, m.open = to, to.After(at)
	default:
		m.to = w.to
		if o.to.Before(m.to) {
			m.to = o.to
		}
	}
	return m, true
}

// disjoint reports that w and o share no instant at at.
func (w lawWindow) disjoint(o lawWindow, at time.Time) bool {
	end := func(x lawWindow) time.Time {
		if x.open {
			return at
		}
		return x.to
	}
	return end(w).Before(o.from) || end(o).Before(w.from)
}

// lawWindows are the windows the laws project by, in hours past
// genstore.Base: whole hours fall on version boundaries, half hours cut
// lifespans in two; they overlap, nest, touch and lie apart.
func lawWindows() []lawWindow {
	h := func(x float64) time.Time { return genstore.Base.Add(time.Duration(x * float64(time.Hour))) }
	return []lawWindow{
		{from: h(0), to: h(2)},
		{from: h(1.5), to: h(4.5)},
		{from: h(2), to: h(6)},
		{from: h(3), to: h(3)},
		{from: h(5.5), to: h(11)},
		{from: h(8), to: h(20)},
		{from: h(2.5), open: true},
		{from: h(9), open: true},
	}
}

// lawExpr is an expression the laws project, and whether what it returns
// is versions under every plan, each with a lifespan: a window they share
// no instant with leaves nothing of them.
type lawExpr struct {
	src      string
	versions bool
}

// lawExprs are the expressions the laws project: each fragmented tag's
// versions (a descendant step), a fragmented child under its parent (a
// child step crossing holes) and the whole document, whose projection clips
// every element below the root (CaQ's root is a snapshot element, the
// fragment plans' a version).
func lawExprs(s *tagstruct.Structure) []lawExpr {
	out := []lawExpr{{src: fmt.Sprintf(`stream("s")/%s`, s.Root.Name)}}
	for _, t := range s.Tags() {
		if !t.IsFragmented() || len(out) > 6 {
			continue
		}
		out = append(out, lawExpr{fmt.Sprintf(`stream("s")//%s`, t.Name), true})
		for _, c := range t.Children {
			if c.IsFragmented() {
				out = append(out, lawExpr{fmt.Sprintf(`stream("s")//%s/%s`, t.Name, c.Name), true})
				break
			}
		}
	}
	return out
}

// TestProjectionLaws holds interval projection to two laws at the query
// level, on generated stores under each plan, each plan compared with
// itself only (the plans part on some histories: ROADMAP item 2):
//
//   - composition: e?[a,b]?[c,d] serializes as e?[max(a,c),min(b,d)], and,
//     when the two windows are disjoint, as no version at all;
//   - idempotence: e?[a,b]?[a,b] serializes as e?[a,b].
func TestProjectionLaws(t *testing.T) {
	windows := lawWindows()
	disjoint, checked := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []genstore.Profile{
			{Seed: seed},
			{Seed: seed, Reannounce: true},
			{Seed: seed, Scan: true, Duplicates: true},
			{Seed: seed, Reorder: true, Drops: true},
		} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ins.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			rt := xcql.NewRuntime()
			rt.RegisterStream("s", st)
			exprs := lawExprs(ins.Structure)
			for _, mode := range bareModes {
				for _, at := range ins.Instants[1:] {
					eval := func(src string) string {
						t.Helper()
						q, err := rt.Compile(src, mode)
						if err != nil {
							t.Fatalf("%s: %s under %s: %v", p, src, mode, err)
						}
						seq, err := q.Eval(at)
						if err != nil {
							t.Fatalf("%s: %s under %s at %s: %v", p, src, mode, at.Format(xtime.Layout), err)
						}
						var b strings.Builder
						for _, it := range seq {
							if n, ok := it.(*xmldom.Node); ok {
								b.WriteString(n.String())
							} else {
								fmt.Fprintf(&b, "%T %s", it, xq.StringValue(it))
							}
							b.WriteByte('\n')
						}
						return b.String()
					}
					for _, e := range exprs {
						for i, w := range windows {
							once := eval(e.src + w.String())
							if twice := eval(e.src + w.String() + w.String()); twice != once {
								t.Errorf("%s under %s at %s: idempotence fails for %s%s\ntwice:\n%sonce:\n%s",
									p, mode, at.Format(xtime.Layout), e.src, w, twice, once)
							}
							for _, o := range windows[i+1:] {
								m, ok := w.meet(o, at)
								if !ok {
									continue
								}
								checked++
								got := eval(e.src + w.String() + o.String())
								if w.disjoint(o, at) {
									disjoint++
									if e.versions && got != "" {
										t.Errorf("%s under %s at %s: %s%s%s over disjoint windows is\n%s",
											p, mode, at.Format(xtime.Layout), e.src, w, o, got)
									}
									continue
								}
								if want := eval(e.src + m.String()); got != want {
									t.Errorf("%s under %s at %s: composition fails: %s%s%s is\n%swhile %s%s is\n%s",
										p, mode, at.Format(xtime.Layout), e.src, w, o, got, e.src, m, want)
								}
							}
						}
					}
				}
			}
		}
	}
	if disjoint == 0 || disjoint == checked {
		t.Fatalf("%d of %d window pairs are disjoint: a law goes unchecked", disjoint, checked)
	}
}
