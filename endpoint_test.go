package xcql_test

import (
	"testing"
	"time"

	"xcql"
	ixcql "xcql/internal/xcql"
)

// TestProjectionEndpointsAgreeAcrossPlans: a projection's ends follow one
// rule under every plan — the evaluator's projection (CaQ), a projection
// call over built nodes and a read under a lifespan bound (QaC, QaC+) —
// so each text gives every plan the same items or the same error. A row
// with like gives the items of that text; one with err fails with it.
func TestProjectionEndpointsAgreeAcrossPlans(t *testing.T) {
	cs := newCreditHistory(t, 40, 10*time.Second)
	rt := ixcql.NewRuntime()
	rt.RegisterStream("credit", cs.st)
	const accounts = `stream("credit")//account`
	run := func(src string, mode xcql.Mode) (string, error) {
		q, err := rt.Compile(src, mode)
		if err != nil {
			t.Fatalf("%s/%s: compile: %v", src, mode, err)
		}
		seq, err := q.Eval(cs.at)
		return xcql.FormatSequence(seq), err
	}
	for _, c := range []struct {
		src, like, err string
	}{
		{src: accounts + `#["last"]`, like: accounts + `#[last]`},
		{src: accounts + `#[last]`},
		{src: accounts + `#["x"]`, err: `xq: version endpoint "x" is not a number`},
		{src: accounts + `?["x"]`, err: `xq: interval endpoint "x" is not a dateTime`},
		{src: accounts + `?[()]`, err: `xq: empty interval endpoint`},
		{src: `for $a in ` + accounts + ` return $a#["last"]`, like: `for $a in ` + accounts + ` return $a#[last]`},
		// a sequence end is its first item
		{src: accounts + `?[(now, now)]`, like: accounts + `?[now]`},
	} {
		for _, mode := range harnessModes {
			got, err := run(c.src, mode)
			switch {
			case c.err != "":
				if err == nil || err.Error() != c.err {
					t.Errorf("%s/%s: error %v, want %q", c.src, mode, err, c.err)
				}
				continue
			case err != nil:
				t.Errorf("%s/%s: %v", c.src, mode, err)
				continue
			case got == "":
				t.Errorf("%s/%s: no items", c.src, mode)
			}
			want, err := run(c.src, xcql.CaQ)
			if c.like != "" {
				want, err = run(c.like, xcql.CaQ)
			}
			if err != nil || got != want {
				t.Errorf("%s/%s: %.300s, want %.300s (%v)", c.src, mode, got, want, err)
			}
		}
	}
}
