package xcql

import (
	"strings"
	"testing"

	"xcql/internal/fragment"
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
		static := q.newStatic(fragment.Eval{At: evalAt})
		if got := materializeResult(raw, static, owned(q.Plan)); len(got) == 0 || &got[0] != &raw[0] {
			t.Errorf("under %s the FLWOR's result was copied", mode)
		}
		lit := rt.MustCompile(`(1, 2)`, mode)
		seq, err := xq.Eval(lit.Plan, xq.NewContext(lit.newStatic(fragment.Eval{At: evalAt})))
		if err != nil {
			t.Fatal(err)
		}
		if got := materializeResult(seq, static, owned(lit.Plan)); &got[0] == &seq[0] {
			t.Errorf("under %s a literal's sequence was handed out as it is", mode)
		}
	}
}
