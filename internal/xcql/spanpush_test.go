package xcql_test

import (
	"fmt"
	"strings"
	"testing"

	"xcql/internal/genstore"
	"xcql/internal/xcql"
	"xcql/internal/xtime"
)

// spanQueries are the queries of ins that project, and for each of its
// first fragmented tags the projections genstore does not spell: an
// instant, symbolic windows — one that ends before now, whose answer
// changes when a version already stored enters it, and one whose answer
// no instant can be scheduled by (a month is no fixed length) —, an
// inverted one that keeps nothing, version ranges, alone and under a
// where, a window whose bounds a for clause binds (a self-join), and one
// over a child step.
func spanQueries(ins *genstore.Instance) []string {
	var out []string
	for _, q := range ins.Queries {
		if strings.Contains(q.Src, "?[") || strings.Contains(q.Src, "#[") {
			out = append(out, q.Src)
		}
	}
	tags := 0
	for _, t := range ins.Structure.Tags() {
		if !t.IsFragmented() {
			continue
		}
		if tags++; tags > 3 {
			break
		}
		all := `stream("s")//` + t.Name
		out = append(out,
			all+`?[now]`,
			all+`?[now-PT1H,now]`,
			all+`?[now-PT6H,now-PT2H]`,
			all+`?[now+P1M,now+P2M]`,
			all+`?[now,now-PT5H]`,
			all+`?[2004-06-01T05:30:00,2004-06-01T04:30:00]`,
			all+`#[2]`,
			all+`#[last]`,
			all+`#[2,last]`,
			`for $x in `+all+`#[2,last] where $x/@k != 3 return $x`,
			all+`[@k != 3]#[2]`,
			`for $x in `+all+`#[2] where $x/@tier = "t1" return $x`,
			`for $x in `+all+`#[1,last] where $x/@k != 3 return $x`,
			fmt.Sprintf(`for $x in %s return count(%s?[vtFrom($x)-PT2H,vtFrom($x)+PT1H])`, all, all),
			fmt.Sprintf(`for $x in %s return <n>{%s?[vtTo($x),vtTo($x)+PT3H]}</n>`, all, all),
		)
		for _, c := range t.Children {
			if c.IsFragmented() {
				out = append(out, fmt.Sprintf(`for $x in %s return $x/%s?[vtFrom($x),now]`, all, c.Name))
				break
			}
		}
	}
	return out
}

// TestSpanPushdownMatchesProjection: every genstore query that projects,
// and the projections spanQueries adds, answers byte for byte the same —
// value or error, and the instant until which the answer holds with the
// store unchanged (xtime.Horizon) — with each projection that follows a
// step pushed into that step's read as its lifespan bound and with every
// projection left to a projection call, under each plan, at every instant
// of every profile.
// CaQ has no read to push into, and stands as the reference the other two
// plans meet where they meet it today.
func TestSpanPushdownMatchesProjection(t *testing.T) {
	pushedPlans, compared := 0, 0
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
			for _, src := range spanQueries(ins) {
				for _, mode := range bareModes {
					results := [2][]string{}
					for i, on := range []bool{true, false} {
						restore := xcql.SetPushSpans(on)
						rt := xcql.NewRuntime()
						rt.RegisterStream("s", st)
						q, err := rt.Compile(src, mode)
						restore()
						if err != nil {
							t.Fatalf("%s: %s under %s: %v", p, src, mode, err)
						}
						if on && pushed(q) {
							pushedPlans++
						}
						u := q.NewUnitEval()
						for _, at := range ins.Instants {
							seq, until, err := u.Eval(q.Plan, nil, 0, nil, nil, at, xcql.Limits{}, nil, true)
							results[i] = append(results[i], fmt.Sprintf("%s%v\nuntil %s", serialize(seq), err, until.Format(xtime.Layout)))
						}
					}
					for k, at := range ins.Instants {
						compared++
						if results[0][k] != results[1][k] {
							t.Errorf("%s under %s at %s: %s pushed is\n%s\nunpushed\n%s",
								p, mode, at.Format(xtime.Layout), src, results[0][k], results[1][k])
						}
					}
				}
			}
		}
	}
	t.Logf("%d plans pushed a projection, %d results compared", pushedPlans, compared)
	if pushedPlans == 0 || compared == 0 {
		t.Fatalf("%d plans pushed a projection, %d results compared: the pushdown goes unchecked", pushedPlans, compared)
	}
}

// pushed reports that q's plan reads under a lifespan bound: a projection
// call spells its window as arguments, a bound after the call's tsids.
func pushed(q *xcql.Query) bool {
	plan := q.Plan.String()
	return strings.Contains(plan, ", ?[") || strings.Contains(plan, ", #[")
}
