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
	{`for $a in $doc/account where count($a/transaction)[. > 1] = 2 return (count($a/transaction), 7)[. < 3]`, "2"},
}

// runOn evaluates src with $doc bound to the credit view under static.
func runOn(t *testing.T, static *Static, src string) (Sequence, error) {
	t.Helper()
	doc := xmldom.MustParseString(creditView)
	return Eval(MustParse(src), NewContext(static).Bind("doc", Singleton(doc.Root())))
}

// checkScratchClean fails unless static's scratch holds no argument, no
// item and no constructor chunk, and its yielded chunks are rewound: a
// Scratch kept across evaluations keeps no node alive. It also fails unless
// the scratch holds at least kept lent sequences: an evaluation, one a
// budget trip cut off included, gives back every sequence it lent — a for
// clause its sequence, even cut off partway through its bindings —, so that
// the evaluations after it lend them again.
func checkScratchClean(t *testing.T, static *Static, src string, kept int) {
	t.Helper()
	sc := static.Scratch
	if sc == nil {
		return
	}
	if len(sc.bufs) < kept {
		t.Errorf("%s: %d lent sequences given back, %d were", src, len(sc.bufs), kept)
	}
	if len(sc.args) != 0 {
		t.Errorf("%s: %d arguments left on the stack", src, len(sc.args))
	}
	if c := sc.ctor; c.nodes.chunk != nil || c.kids.chunk != nil || c.attrs.chunk != nil || c.items.chunk != nil {
		t.Errorf("%s: the Static keeps a constructor chunk (%d nodes, %d children, %d attributes, %d items)", src, len(c.nodes.chunk), len(c.kids.chunk), len(c.attrs.chunk), len(c.items.chunk))
	}
	if c := sc.yielded; c.nodes.used+c.kids.used+c.attrs.used+c.items.used != 0 {
		t.Errorf("%s: the yielded chunks are not rewound: %+v", src, c)
	}
	for _, p := range sc.yielded.kids.chunk {
		if p != nil {
			t.Errorf("%s: a rewound child list keeps %v", src, p)
			break
		}
	}
	for _, b := range sc.bufs {
		for i, it := range b[:cap(b)] {
			if it != nil {
				t.Errorf("%s: a lent sequence keeps %v in slot %d", src, it, i)
				return
			}
		}
	}
}

// The scratch changes no value: each query gives its value on a fresh
// Static, again on the same Static, on a new Static handed the Scratch of
// the evaluations before, trimmed, as a runtime hands it, and on a Static
// whose last evaluation tripped its budget midway, and the scratch comes
// back clean after each.
func TestScratchChangesNoValue(t *testing.T) {
	shared, handed := &Static{Now: evalAt}, &Scratch{}
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
			checkScratchClean(t, shared, q.src, 0)
			own := &Static{Now: evalAt, Scratch: handed}
			if again, err = runOn(t, own, q.src); err != nil {
				t.Fatalf("%s: %v", q.src, err)
			}
			if render(again) != render(fresh) {
				t.Errorf("%s over a handed Scratch (pass %d):\n%swant\n%s", q.src, pass, render(again), render(fresh))
			}
			checkScratchClean(t, own, q.src, 0)
			handed.Trim()
		}
		// trip the budget at every step in turn: whatever the evaluation
		// leaves behind, the next one on the same Static is unaffected
		for steps := int64(1); ; steps++ {
			kept := len(shared.Scratch.bufs)
			shared.Budget = budget.New(context.Background(), budget.Limits{MaxSteps: steps})
			_, err := runOn(t, shared, q.src)
			shared.Budget = nil
			checkScratchClean(t, shared, q.src, kept)
			again, err2 := runOn(t, shared, q.src)
			if err2 != nil {
				t.Fatalf("%s after a trip at %d steps: %v", q.src, steps, err2)
			}
			if render(again) != render(fresh) {
				t.Fatalf("%s after a trip at %d steps:\n%swant\n%s", q.src, steps, render(again), render(fresh))
			}
			checkScratchClean(t, shared, q.src, kept)
			if err == nil {
				break
			}
		}
	}
	// count()'s shared answers are read-only to every receiver
	for n, seq := range smallCounts {
		if len(seq) != 1 || cap(seq) != 1 || seq[0] != float64(n) {
			t.Fatalf("count's shared answer for %d is now %v (cap %d)", n, seq, cap(seq))
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

// Per binding, a FLWOR allocates what its result keeps, and what its
// constructors keep it allocates in a few arrays sized for the bindings
// still to come: nothing for the path steps, the predicate, the
// comparisons and the content that build an element, and nothing per
// element — the cost of n more bindings is a few more allocations (a where
// sizes each chunk for as many bindings as it let through before, so one
// per doubling; 2n while every element and its child list were objects of
// their own). An operand arithmetic reads and an order-by key are atomized
// as the one item read, never copied into a sequence first: a sum in the
// where clause costs four per binding, a sort key five. A call's argument
// is a value of its own, which the callee may keep, but count() answers
// from numbers built once: one per binding (three while it boxed a new
// number into a new sequence for every answer). A constructor bound by a
// let is evaluated whole, and its one-item sequence is carved with it: the
// let's context and binding are the binding's two (three while the
// sequence was an object of its own).
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
		{bind + `where $t/amount >= 0 and not($t/status = "suspended")` + result, 0},
		{bind + `where $t/amount + 1 > 0` + result, 4},
		{bind + `where count($t/status) = 1` + result, 1},
		{bind + `order by $t/amount` + result, 5},
		{bind + result, 0},
		// the let's context and binding; the constructor Eval evaluates
		// carves its one-item sequence with its element
		{bind + `let $r := <r>{$t/amount/text()}</r> return $r`, 2},
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

// Trim keeps what the caps allow of a Scratch — the argument stack up to
// keptArgs slots, up to keptBufs lent sequences of up to keptBuf items —
// and drops the rest, so that a Scratch kept between evaluations stays
// small whatever one evaluation grew it to.
func TestScratchTrim(t *testing.T) {
	sc := &Scratch{args: make([]Sequence, 0, keptArgs+1)}
	for i := range 2 * keptBufs {
		sc.bufs = append(sc.bufs, make(Sequence, 0, 1+i*keptBuf/keptBufs))
	}
	sc.bufs = append(sc.bufs, make(Sequence, 0, keptBuf+1))
	sc.ctor.left = 3
	sc.Trim()
	if sc.args != nil {
		t.Errorf("an argument stack of %d slots kept past the cap of %d", keptArgs+1, keptArgs)
	}
	if len(sc.bufs) != keptBufs {
		t.Errorf("%d lent sequences kept, want %d", len(sc.bufs), keptBufs)
	}
	for _, b := range sc.bufs[:cap(sc.bufs)] {
		if cap(b) > keptBuf {
			t.Errorf("a lent sequence of %d items kept past the cap of %d", cap(b), keptBuf)
		}
	}
	if c := sc.ctor; c.left != 0 || c.nodes.chunk != nil || c.kids.chunk != nil || c.attrs.chunk != nil || c.items.chunk != nil {
		t.Errorf("constructor state kept: %+v", c)
	}
	sc.args = make([]Sequence, 0, keptArgs)
	if sc.Trim(); cap(sc.args) != keptArgs {
		t.Errorf("an argument stack of %d slots dropped", keptArgs)
	}
}
