package xcql_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql"
	"xcql/internal/genstore"
)

// A pushed filter and the evaluator must agree plan by plan, not only
// through CaQ: the plans are known to part on some histories
// (knownSplits), and there CaQ says nothing about a filter. So every
// predicate the translator pushes below an access call is also run where
// it cannot — on a parenthesized path, whose predicates filter a finished
// sequence, and as a conditional in the return clause — under the same
// plan, over every profile of five seeds, re-announcing ones included. So
// is every position a child step's read serves as a window
// (comparePositions).
func TestPushedFilterMatchesEvaluator(t *testing.T) {
	conds := []struct{ pred, cond string }{
		{`@tier = "t1"`, `$x/@tier = "t1"`},
		{`@k != 3`, `$x/@k != 3`},
		{`3 <= @k`, `3 <= $x/@k`},
		{`@at >= 2004-06-01T12:00:00`, `$x/@at >= 2004-06-01T12:00:00`},
		{`@at < "2004-06-01T06:00:00"`, `$x/@at < "2004-06-01T06:00:00"`},
		{`@pad = 2`, `$x/@pad = 2`},
		{`@pad = " 2 "`, `$x/@pad = " 2 "`},
		{`@k != 3 and @tier = "t0"`, `$x/@k != 3 and $x/@tier = "t0"`},
		{`@missing = 1`, `$x/@missing = 1`},
	}
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	compared := 0
	for seed := int64(1); seed <= seeds; seed++ {
		for _, p := range harnessProfiles(seed) {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ins.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			e := xcql.NewEngine()
			e.RegisterStore("s", st)
			for _, tag := range ins.Structure.Tags() {
				if !tag.IsFragmented() {
					continue
				}
				cs := conds
				for _, c := range tag.Children {
					if !c.IsFragmented() {
						cs = append(cs[:len(cs):len(cs)],
							struct{ pred, cond string }{c.Name + " < 500", "$x/" + c.Name + " < 500"},
							struct{ pred, cond string }{c.Name + `/@tier != "t2"`, "$x/" + c.Name + `/@tier != "t2"`})
						break
					}
				}
				for _, sel := range []string{`stream("s")//` + tag.Name, `stream("s")` + tag.Path()} {
					for _, c := range cs {
						pushed := []string{
							fmt.Sprintf(`%s[%s]`, sel, c.pred),
							fmt.Sprintf(`for $x in %s where %s return $x`, sel, c.cond),
						}
						plain := []string{
							fmt.Sprintf(`(%s)[%s]`, sel, c.pred),
							fmt.Sprintf(`for $x in %s return if (%s) then $x else ()`, sel, c.cond),
						}
						for _, mode := range []xcql.Mode{xcql.QaC, xcql.QaCPlus} {
							for _, at := range ins.Instants {
								for i := range pushed {
									got, want := evalFormatted(t, e, pushed[i], mode, at), evalFormatted(t, e, plain[i], mode, at)
									if got != want {
										t.Fatalf("%s %s at %v:\n%s\n%s\nwant, from\n%s\n%s", p, mode, at, pushed[i], harnessTruncate(got), plain[i], harnessTruncate(want))
									}
									compared++
								}
							}
						}
					}
				}
				compared += comparePositions(t, e, p, ins.Instants, `stream("s")`+tag.Path(), tag.Name, cs)
			}
		}
	}
	t.Logf("%d pushed evaluations compared", compared)
}

// comparePositions holds a child step's read window to the evaluator: every
// position the read serves — alone, after a pushed filter, before a
// comparison — against the same predicates spelled so that the read cannot
// ([1 + 0] for [1]), which leaves the evaluator to apply them all, per
// parent, to a read that builds every version. It returns how many
// evaluations it compared.
func comparePositions(t *testing.T, e *xcql.Engine, p genstore.Profile, instants []time.Time, sel, tag string, conds []struct{ pred, cond string }) int {
	t.Helper()
	positions := []struct{ windowed, plain string }{
		{"[1]", "[1 + 0]"},
		{"[2]", "[2 + 0]"},
		{"[last()]", "[last() + 0]"},
		{"[position() <= 2]", "[position() <= 2 + 0]"},
		{"[position() < 2]", "[position() < 2 + 0]"},
	}
	for _, c := range conds[:2] {
		positions = append(positions,
			struct{ windowed, plain string }{"[" + c.pred + "][1]", "[" + c.pred + "][1 + 0]"},
			struct{ windowed, plain string }{"[1][" + c.pred + "]", "[1 + 0][" + c.pred + "]"})
	}
	compared := 0
	for _, pos := range positions {
		windowed, plain := sel+pos.windowed, sel+pos.plain
		for _, mode := range []xcql.Mode{xcql.QaC, xcql.QaCPlus} {
			for src, want := range map[string]bool{windowed: true, plain: false} {
				q, err := e.Compile(src, mode)
				if err != nil {
					t.Fatalf("%s: compile: %v", src, err)
				}
				found := false
				for _, tgt := range q.Explain().Targets {
					if tgt.Tag == tag {
						found = true
						if strings.HasPrefix(tgt.PerParent, "window") != want || tgt.PerParent == "" {
							t.Fatalf("%s %s: per-parent list %q, want a read window %v", mode, src, tgt.PerParent, want)
						}
					}
				}
				if !found {
					t.Fatalf("%s %s: no access path on %s", mode, src, tag)
				}
			}
			for _, at := range instants {
				if got, want := evalFormatted(t, e, windowed, mode, at), evalFormatted(t, e, plain, mode, at); got != want {
					t.Fatalf("%s %s at %v:\n%s\n%s\nwant, from\n%s\n%s", p, mode, at, windowed, harnessTruncate(got), plain, harnessTruncate(want))
				}
				compared++
			}
		}
	}
	return compared
}

func evalFormatted(t *testing.T, e *xcql.Engine, src string, mode xcql.Mode, at time.Time) string {
	t.Helper()
	q, err := e.Compile(src, mode)
	if err != nil {
		t.Fatalf("%s: compile: %v", src, err)
	}
	seq, err := q.Eval(at)
	if err != nil {
		t.Fatalf("%s: eval: %v", src, err)
	}
	return xcql.FormatSequence(seq)
}
