package xq

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xcql/internal/budget"
	"xcql/internal/xmldom"
)

// scratchQueries lean on the evaluation's scratch: paths of several steps
// inside the predicates of paths of several steps, positional and boolean
// predicates filtered in place, calls nested in arguments, a user function
// returning its argument, constructors of several contents, and operands a
// comparison only reads. want is each one's value, items joined by "|".
var scratchQueries = []struct{ src, want string }{
	{`$doc/account[transaction[amount > 1000]/status = "charged"]/@id`, "1234"},
	{`$doc/account/transaction[status[. = "suspended"]]/@id`, "12346"},
	{`$doc//transaction[amount > 1000][2]/@id`, "12346"},
	{`$doc//transaction[amount > 900][last()]/vendor/text()`, "BookShop"},
	{`($doc//amount)[. > 1000][1]`, "3800.20"},
	{`for $t in $doc//transaction where $t/amount > 1000 and $t/status = "charged" return string($t/@id)`, "12345|12346"},
	{`for $a in $doc/account return <r id="{$a/@id}">{$a/customer/text()}{count($a/transaction)}{sum($a/transaction/amount)}</r>`,
		"John Smith2 5000.2|Jane Doe1 950"},
	{`declare function same($n) { $n }; for $t in $doc//transaction return same($t/amount)/text()`, "3800.20|1200|950"},
	{`concat(string(count($doc//transaction[amount > number(concat("1", "000"))])), "-", string-join($doc/account/@id, ","))`, "2-1234,5678"},
	{`for $t in $doc//transaction return if ($t/status = "suspended") then <s>{$t/@id}</s> else -$t/amount`,
		"-3800.2||-950"},
	{`every $t in $doc//transaction satisfies $t/amount/text() != ""`, "true"},
	{`<out>{for $a in $doc/account return <a>{$a/creditLimit[. > 1500]/text()}</a>}</out>`, "20005000"},
}

// runOn evaluates src with $doc bound to the credit view under static.
func runOn(t *testing.T, static *Static, src string) (Sequence, error) {
	t.Helper()
	doc := xmldom.MustParseString(creditView)
	return Eval(MustParse(src), NewContext(static).Bind("doc", Singleton(doc.Root())))
}

// checkScratchClean fails unless static's scratch holds no argument and no
// item: a Static kept across evaluations keeps no node alive.
func checkScratchClean(t *testing.T, static *Static, src string) {
	t.Helper()
	if len(static.args) != 0 {
		t.Errorf("%s: %d arguments left on the stack", src, len(static.args))
	}
	for _, b := range static.bufs {
		for i, it := range b[:cap(b)] {
			if it != nil {
				t.Errorf("%s: a lent sequence keeps %v in slot %d", src, it, i)
				return
			}
		}
	}
}

// The scratch changes no value: each query gives its value on a fresh
// Static, again on the same Static, and on a Static whose last evaluation
// tripped its budget midway, and the scratch comes back clean after each.
func TestScratchChangesNoValue(t *testing.T) {
	shared := &Static{Now: evalAt}
	for _, q := range scratchQueries {
		fresh, err := runOn(t, &Static{Now: evalAt}, q.src)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		if got := asStrings(fresh); got != q.want {
			t.Errorf("%s = %q, want %q", q.src, got, q.want)
		}
		for pass := range 2 {
			again, err := runOn(t, shared, q.src)
			if err != nil {
				t.Fatalf("%s: %v", q.src, err)
			}
			if render(again) != render(fresh) {
				t.Errorf("%s on a Static used before (pass %d):\n%swant\n%s", q.src, pass, render(again), render(fresh))
			}
			checkScratchClean(t, shared, q.src)
		}
		// trip the budget at every step in turn: whatever the evaluation
		// leaves behind, the next one on the same Static is unaffected
		for steps := int64(1); ; steps++ {
			shared.Budget = budget.New(context.Background(), budget.Limits{MaxSteps: steps})
			_, err := runOn(t, shared, q.src)
			shared.Budget = nil
			again, err2 := runOn(t, shared, q.src)
			if err2 != nil {
				t.Fatalf("%s after a trip at %d steps: %v", q.src, steps, err2)
			}
			if render(again) != render(fresh) {
				t.Fatalf("%s after a trip at %d steps:\n%swant\n%s", q.src, steps, render(again), render(fresh))
			}
			checkScratchClean(t, shared, q.src)
			if err == nil {
				break
			}
		}
	}
}

// manyTransactions is a view of one account holding n transactions.
func manyTransactions(n int) *xmldom.Node {
	var b strings.Builder
	b.WriteString(`<creditAccounts><account id="1">`)
	for i := range n {
		fmt.Fprintf(&b, `<transaction id="%d"><amount>%d</amount><status>charged</status></transaction>`, i, i)
	}
	b.WriteString(`</account></creditAccounts>`)
	return xmldom.MustParseString(b.String()).Root()
}

// Per binding, a FLWOR allocates what its result keeps: a constructed
// element and its child list, and nothing for the path steps, the
// predicate, the comparisons and the content that build it — the cost of
// n more bindings is 2n allocations and a few more for the sequences that
// grow with the result. An operand arithmetic reads and an order-by key
// are atomized as the one item read, never copied into a sequence first:
// a sum in the where clause costs four more per binding, a sort key five.
func TestBindingAllocatesWhatTheResultKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		bind   = `for $t in $doc/account/transaction[status = "charged"] `
		result = ` return <r>{$t/amount/text()}{$t/status/text()}</r>`
	)
	for _, c := range []struct {
		src        string
		perBinding int
	}{
		{bind + `where $t/amount >= 0 and not($t/status = "suspended")` + result, 2},
		{bind + `where $t/amount + 1 > 0` + result, 6},
		{bind + `order by $t/amount` + result, 7},
	} {
		e := MustParse(c.src)
		allocs := func(n int) float64 {
			doc := manyTransactions(n)
			return testing.AllocsPerRun(5, func() {
				seq, err := Eval(e, NewContext(&Static{Now: evalAt}).Bind("doc", Singleton(doc)))
				if err != nil || len(seq) != n {
					t.Fatalf("%s: %d items, %v", c.src, len(seq), err)
				}
			})
		}
		const n = 64
		small, large := allocs(n), allocs(2*n)
		t.Logf("%.0f allocations at %d bindings, %.0f at %d: %s", small, n, large, 2*n, c.src)
		if more, most := large-small, c.perBinding*n+8; more > float64(most) {
			t.Errorf("%s: %d more bindings cost %.0f more allocations, want at most %d", c.src, n, more, most)
		}
	}
}
