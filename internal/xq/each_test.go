package xq

import (
	"context"
	"testing"

	"xcql/internal/budget"
	"xcql/internal/xmldom"
)

// eachQueries add to scratchQueries what a yielding FLWOR must keep apart
// from its return: a let's element and a for clause's constructed sequence,
// both read by several bindings' returns, a constructor nested in the
// return's own FLWOR, an order by, a positional variable and a FLWOR that
// yields nothing.
var eachQueries = []string{
	`for $a in $doc/account let $e := <e>{$a/@id}</e> for $t in $a/transaction return <r>{$e}{$t/amount/text()}</r>`,
	`for $a in $doc/account for $x in (<x>{$a/customer/text()}</x>, <y/>) return ($x, <z>{$x}</z>)`,
	`for $a in $doc/account return <a>{for $t in $a/transaction return <t>{$t/@id}</t>}</a>`,
	`for $t in $doc//transaction order by $t/amount return <r>{$t/amount/text()}</r>`,
	`for $t at $i in $doc//transaction return <r n="{$i}">{$t/vendor/text()}</r>`,
	`for $t in $doc//transaction where $t/amount > 1e9 return <r/>`,
	`count(for $t in $doc//transaction return <r/>)`,
}

// EvalEach yields what Eval returns, item for item, charges what Eval
// charges, and leaves the scratch clean — the yielded chunks rewound — on
// a fresh Static, on one used before and after a budget trip at every step.
func TestEvalEachMatchesEval(t *testing.T) {
	srcs := eachQueries
	for _, q := range scratchQueries {
		srcs = append(srcs, q.src)
	}
	shared := &Static{Now: evalAt}
	for _, src := range srcs {
		want, wantUsed := evalUsed(t, src)
		got, gotUsed, err := eachUsed(t, &Static{Now: evalAt}, src, budget.Limits{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got != want || gotUsed != wantUsed {
			t.Errorf("%s: EvalEach yields %q, charging %v; Eval returns %q, charging %v", src, got, gotUsed, want, wantUsed)
		}
		for steps := int64(1); ; steps++ {
			kept := 0
			if shared.Scratch != nil {
				kept = len(shared.Scratch.bufs)
			}
			_, _, err := eachUsed(t, shared, src, budget.Limits{MaxSteps: steps})
			checkScratchClean(t, shared, src, kept)
			again, _, err2 := eachUsed(t, shared, src, budget.Limits{})
			if err2 != nil || again != want {
				t.Fatalf("%s after a trip at %d steps: %q, %v; want %q", src, steps, again, err2, want)
			}
			checkScratchClean(t, shared, src, kept)
			if err == nil {
				break
			}
		}
	}
}

// evalUsed is src's value, rendered, and what its evaluation charged.
func evalUsed(t *testing.T, src string) (string, [3]int64) {
	t.Helper()
	b := budget.New(context.Background(), budget.Limits{})
	seq, err := runOn(t, &Static{Now: evalAt, Budget: b}, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	var used [3]int64
	used[0], used[1], used[2] = b.Used()
	return render(seq), used
}

// eachUsed is src's value under static as EvalEach yields it, each item
// rendered when it is yielded, and what the evaluation charged.
func eachUsed(t *testing.T, static *Static, src string, lim budget.Limits) (string, [3]int64, error) {
	t.Helper()
	static.Budget = budget.New(context.Background(), lim)
	defer func() { static.Budget = nil }()
	doc := xmldom.MustParseString(creditView).Root()
	var got string
	err := EvalEach(MustParse(src), NewContext(static).Bind("doc", Singleton(doc)), func(seq Sequence) error {
		got += render(seq)
		return nil
	})
	var used [3]int64
	used[0], used[1], used[2] = static.Budget.Used()
	return got, used, err
}

// A yielding FLWOR builds every binding's return in the same arrays: once
// its Scratch has been used, n more bindings of a constructing return cost
// no allocation, where Eval's result keeps every element.
func TestYieldedBindingsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := MustParse(`for $t in $doc/account/transaction return <r a="x">{$t/amount/text()}{1}</r>`)
	allocs := func(n int) float64 {
		doc := manyTransactions(n)
		static := &Static{Now: evalAt}
		return testing.AllocsPerRun(5, func() {
			items := 0
			err := EvalEach(e, NewContext(static).Bind("doc", Singleton(doc)), func(seq Sequence) error {
				items += len(seq)
				return nil
			})
			if err != nil || items != n {
				t.Fatalf("%d items, %v", items, err)
			}
			static.Scratch.Trim()
		})
	}
	const n = 64
	small, large := allocs(n), allocs(2*n)
	t.Logf("%.0f allocations at %d bindings, %.0f at %d", small, n, large, 2*n)
	if large > small+1 {
		t.Errorf("%d more yielded bindings cost %.0f more allocations, want none", n, large-small)
	}
}

// A panic in the middle of a yielded return — a budget trip a store read
// raises — leaves the scratch as an error does: the yielded chunks rewound
// and the lent sequence cleared, so that a kept Scratch keeps no node alive.
func TestYieldedReturnCutOffByAPanic(t *testing.T) {
	calls := 0
	trip := func(*Context, []Sequence) (Sequence, error) {
		if calls++; calls == 2 {
			panic(&budget.ResourceError{})
		}
		return Singleton("x"), nil
	}
	static := &Static{Now: evalAt, Funcs: map[string]Func{"trip": trip}}
	const src = `for $t in $doc//transaction return (<r>{$t/amount/text()}</r>, <s>{trip()}</s>)`
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the second binding's trip did not panic")
			}
		}()
		eachUsed(t, static, src, budget.Limits{})
	}()
	checkScratchClean(t, static, src, 0)
}
