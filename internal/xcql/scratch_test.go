package xcql

import (
	"context"
	"strings"
	"testing"
	"time"

	"xcql/internal/xq"
)

// What Eval returns is the caller's: overwriting its items changes nothing a
// later evaluation returns — a literal's sequence, built once per plan, is
// handed out as a copy, a FLWOR's result, built by its evaluation alone, as
// it is — under every plan, the final materialization's hole filling
// included (a version returned whole under QaC and QaC+ holds holes).
func TestEvalResultIsTheCallers(t *testing.T) {
	rt := newRuntime(t)
	for _, src := range []string{
		`(1, "two", 3)`,
		`"one"`,
		`1 = 1`,
		`count(stream("credit")//account)`,
		`for $a in stream("credit")//account return $a/customer`,
		`for $a in stream("credit")//account return $a`,
		`for $a in stream("credit")//account return <a>{$a/@id}</a>`,
		`<all>{stream("credit")//account/customer}</all>`,
	} {
		for _, mode := range allModes {
			q, err := rt.Compile(src, mode)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			first, err := q.Eval(evalAt)
			if err != nil {
				t.Fatalf("%s under %s: %v", src, mode, err)
			}
			want := strings.Join(renderSeq(first), "\n")
			if len(first) == 0 {
				t.Fatalf("%s under %s: no items", src, mode)
			}
			for i := range first {
				first[i] = "overwritten"
			}
			again, err := q.Eval(evalAt)
			if err != nil {
				t.Fatalf("%s under %s: %v", src, mode, err)
			}
			if got := strings.Join(renderSeq(again), "\n"); got != want {
				t.Errorf("%s under %s: after the first result was overwritten the next evaluation returns\n%s\nwant\n%s", src, mode, got, want)
			}
		}
	}
}

// A result built by the evaluation alone is materialized in place: a
// FLWOR's result is not copied, whatever its items hold.
func TestMaterializeKeepsAnOwnedResult(t *testing.T) {
	rt := newRuntime(t)
	for _, mode := range allModes {
		q := rt.MustCompile(`for $a in stream("credit")//account return $a`, mode)
		raw, err := q.EvalRaw(evalAt)
		if err != nil {
			t.Fatal(err)
		}
		static := armedStatic(q)
		if got := materializeResult(raw, static, owned(q.Plan)); len(got) == 0 || &got[0] != &raw[0] {
			t.Errorf("under %s the FLWOR's result was copied", mode)
		}
		lit := rt.MustCompile(`(1, 2)`, mode)
		seq, err := xq.Eval(lit.Plan, xq.NewContext(armedStatic(lit)))
		if err != nil {
			t.Fatal(err)
		}
		if got := materializeResult(seq, static, owned(lit.Plan)); &got[0] == &seq[0] {
			t.Errorf("under %s a literal's sequence was handed out as it is", mode)
		}
	}
}

// armedStatic is a static environment of q's, armed for an evaluation at
// evalAt over a scratch of its own.
func armedStatic(q *Query) *xq.Static {
	e := q.newEnv()
	e.arm(q, context.Background(), evalAt, Limits{}, nil, new(scratch))
	return &e.static
}

// A unit whose result is its bound sequence — a pass-through body, $UnitVar
// itself — hands back a sequence of its own: the unit's versions are read
// into a sequence the evaluation lends, which goes back when the unit
// returns, so what Eval returned, and what each was handed, is unchanged
// by the evaluations that follow over the same scratch.
func TestUnitResultIsItsOwn(t *testing.T) {
	rt, at := reannouncedCredit(t)
	q := rt.MustCompile(`stream("credit")//account`, QaCPlus)
	st := rt.Store("credit")
	fids, versions := st.TSIDFillers(st.Structure().Named("account")[0].ID)
	if len(fids) != 1 || versions != 3 {
		t.Fatalf("%d accounts in %d versions, want 1 in 3", len(fids), versions)
	}
	u := q.NewUnitEval()
	body := &xq.VarRef{Name: UnitVar}
	for _, materialize := range []bool{false, true} {
		// the query's own evaluation reads the same versions the same way
		eval := q.EvalRaw
		if materialize {
			eval = q.Eval
		}
		ref, err := eval(at)
		if err != nil {
			t.Fatal(err)
		}
		want := strings.Join(renderSeq(ref), "\n")
		held, _, err := u.Eval(body, st, fids[0], nil, false, nil, at, Limits{}, nil, materialize)
		if err != nil || len(held) != versions {
			t.Fatalf("materialize=%v: %d items, %v", materialize, len(held), err)
		}
		var each []xq.Sequence
		keep := func(seq xq.Sequence, _ time.Time) { each = append(each, seq) }
		if _, _, err := u.Eval(body, st, fids[0], nil, false, keep, at, Limits{}, nil, materialize); err != nil {
			t.Fatal(err)
		}
		for range 2 {
			if _, _, err := u.Eval(body, st, fids[0], nil, true, nil, at, Limits{}, nil, materialize); err != nil {
				t.Fatal(err)
			}
		}
		if got := strings.Join(renderSeq(held), "\n"); got != want {
			t.Errorf("materialize=%v: the result held changed under the next evaluations:\n%s\nwant\n%s", materialize, got, want)
		}
		var got []string
		for _, seq := range each {
			got = append(got, renderSeq(seq)...)
		}
		if strings.Join(got, "\n") != want {
			t.Errorf("materialize=%v: the versions each kept changed under the next evaluations:\n%s\nwant\n%s", materialize, strings.Join(got, "\n"), want)
		}
	}
}
