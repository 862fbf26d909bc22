package xq

import (
	"fmt"
	"strings"
	"testing"

	"xcql/internal/xmldom"
)

// A number selects the item whose position it equals: a fractional one
// selects nothing, over a sequence and over a step alike.
func TestFractionalPositionSelectsNothing(t *testing.T) {
	for src, want := range map[string]string{
		`(10, 20, 30)[1.5]`:                 "",
		`(10, 20, 30)[2.9]`:                 "",
		`(10, 20, 30)[2.0]`:                 "20",
		`(10, 20, 30)[4 div 2]`:             "20",
		`$doc/account[1.5]/customer`:        "",
		`$doc/account/transaction[0.5]/@id`: "",
		`$doc/account/transaction[2]/@id`:   "12346",
	} {
		if got := asStrings(run(t, src)); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

// A FLWOR without order by runs its return as each tuple survives, each
// for clause (and each quantifier) rebinding one frame; with a constant
// order by key it keeps a context per tuple and runs every return after.
// The two paths return the same items — the same nodes, not equal copies —
// whichever of a query's FLWORs takes which.
func TestStreamingFLWORMatchesTuplePath(t *testing.T) {
	for _, src := range []string{
		// the bound item twice
		`for $x in $doc//transaction {o}return ($x, $x)`,
		// an inner return that captures the outer variable
		`for $a in $doc/account {o}return for $t in $a/transaction {o}return ($a/@id, $t, $a)`,
		`for $a in $doc/account, $t in $a/transaction {o}return for $s in $t/status {o}return ($a, $t/@id, $s)`,
		// a constructor that keeps the bound node
		`for $x in $doc//transaction {o}return <r n="{ $x/@id }">{ $x }{ for $s in $x/status {o}return $x/amount }</r>`,
		// a user function that returns its argument
		`declare function same($n) { $n }; for $x in $doc//transaction {o}return (same($x), for $y in same($x) {o}return $y/vendor)`,
		// a positional variable
		`for $x at $i in $doc//transaction {o}return for $s at $j in $x/status {o}return ($i, $x/@id, $j, $s)`,
		// quantifiers beside and inside the loops
		`for $a in $doc/account {o}return (some $t in $a/transaction satisfies $t/amount > 1000, every $t in $a/transaction satisfies (for $s in $t/status {o}return $s) = "charged", $a)`,
		`for $t in $doc//transaction where some $s in $t/status satisfies $s = "suspended" {o}return $t`,
	} {
		doc := xmldom.MustParseString(creditView).Root()
		run := func(src string) Sequence {
			t.Helper()
			seq, err := Eval(MustParse(src), NewContext(&Static{Now: evalAt}).Bind("doc", Singleton(doc)))
			if err != nil {
				t.Fatalf("eval %q: %v", src, err)
			}
			return seq
		}
		sites := strings.Count(src, "{o}")
		streaming := run(strings.ReplaceAll(src, "{o}", ""))
		if len(streaming) == 0 {
			t.Fatalf("%s: empty result", src)
		}
		for mask := 1; mask < 1<<sites; mask++ {
			q := src
			for i := range sites {
				ord := ""
				if mask&(1<<i) != 0 {
					ord = "order by 1 "
				}
				q = strings.Replace(q, "{o}", ord, 1)
			}
			sameItems(t, q, run(q), streaming)
		}
	}
}

// sameItems fails unless got and want hold the same items: identical node
// pointers below a constructed element's top, equal atomics.
func sameItems(t *testing.T, src string, got, want Sequence) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d\n got %s\nwant %s", src, len(got), len(want), render(got), render(want))
	}
	for i := range got {
		g, gn := got[i].(*xmldom.Node)
		w, wn := want[i].(*xmldom.Node)
		switch {
		case gn != wn:
			t.Fatalf("%s: item %d is %T, want %T", src, i, got[i], want[i])
		case gn && g != w && !sameConstructed(g, w):
			t.Fatalf("%s: item %d is another node: %s, want %s", src, i, g, w)
		case !gn && got[i] != want[i]:
			t.Fatalf("%s: item %d is %v, want %v", src, i, got[i], want[i])
		}
	}
}

// sameConstructed reports that two constructed elements hold the same
// attributes and, child for child, the same nodes or equal text.
func sameConstructed(a, b *xmldom.Node) bool {
	if a.Name != b.Name || fmt.Sprint(a.Attrs) != fmt.Sprint(b.Attrs) || len(a.Children) != len(b.Children) {
		return false
	}
	for i, c := range a.Children {
		d := b.Children[i]
		if c != d && !(c.Type == xmldom.TextNode && d.Type == xmldom.TextNode && c.Data == d.Data) {
			return false
		}
	}
	return true
}

func render(seq Sequence) string {
	var b strings.Builder
	for _, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			b.WriteString(n.String())
		} else {
			b.WriteString(StringValue(it))
		}
		b.WriteByte('|')
	}
	return b.String()
}

// Constructor text is built in one sized pass: what an element or an
// attribute made of n adjacent atomics allocates does not grow with n.
func TestConstructorTextAllocationsFlat(t *testing.T) {
	for _, src := range []string{`<a>{ $s }</a>`, `<a b="x{ $s }y"/>`, `<a>{ attribute b { $s } }</a>`} {
		e := MustParse(src)
		allocs := func(n int) float64 {
			words := make(Sequence, n)
			for i := range words {
				words[i] = "word"
			}
			ctx := NewContext(&Static{Now: evalAt}).Bind("s", words)
			return testing.AllocsPerRun(10, func() {
				if _, err := Eval(e, ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		if few, many := allocs(8), allocs(512); many != few {
			t.Errorf("%s: %.0f allocations over 8 atomics, %.0f over 512", src, few, many)
		}
	}
}

// aheadProbe is a ReadAhead that records the sequences it is handed, and
// how many of what its Begin returned came back to End.
type aheadProbe struct {
	begun []Sequence
	ended int
}

// aheadToken is what an aheadProbe's Begin returns: ended once End had it.
type aheadToken struct {
	probe *aheadProbe
	ended bool
}

func (p *aheadProbe) Begin(_ *Context, seq Sequence) any {
	p.begun = append(p.begun, seq)
	return &aheadToken{probe: p}
}

func (p *aheadProbe) End(_ *Context, ahead any) {
	ahead.(*aheadToken).ended = true
	p.ended++
}

// What a for clause's ReadAhead returned rides on each binding the clause
// makes, with the binding's position in the clause's sequence, however the
// FLWOR binds — one frame rebound, a context per tuple for an order by or
// a positional variable — and reaches through a let and a nested clause
// that rebind the very sequence; an equal sequence built anew finds
// nothing, and a clause of one item has nothing read ahead. What Begin
// returned comes back to End once, after every binding that carries it was
// evaluated — for an order by, after the last return.
func TestReadAheadRidesOnEachBinding(t *testing.T) {
	for src, want := range map[string]string{
		`for $x in (10, 20, 30) return at($x)`:                               "0|1|2",
		`for $x in (10, 20, 30) order by -$x return at($x)`:                  "2|1|0",
		`for $x at $i in (10, 20, 30) return ($i, at($x))`:                   "1|0|2|1|3|2",
		`for $x in (10, 20, 30) let $y := $x return at($y)`:                  "0|1|2",
		`for $x in (10, 20, 30) return for $y in $x return at($y)`:           "0|1|2",
		`for $x in (10, 20, 30) where $x > 10 return at($x)`:                 "1|2",
		`for $x in (10, 20, 30) return at(($x, $x))`:                         "-1|-1|-1",
		`for $x in (10, 20, 30) return at(for $y in $x return ($y + 0))`:     "-1|-1|-1",
		`for $x in (10) return at($x)`:                                       "-1",
		`for $x in (10, 20) return for $y in (1, 2) return (at($x), at($y))`: "0|0|0|1|1|0|1|1",
	} {
		e := MustParse(src)
		probe := &aheadProbe{}
		withAhead(e, probe)
		st := &Static{Now: evalAt, Funcs: map[string]Func{
			"at": func(ctx *Context, args []Sequence) (Sequence, error) {
				a, at, ok := ctx.Ahead(args[0])
				if tok, _ := a.(*aheadToken); !ok || tok == nil || tok.probe != probe {
					return Singleton(float64(-1)), nil
				} else if tok.ended {
					return Singleton(float64(-2)), nil
				}
				return Singleton(float64(at)), nil
			},
		}}
		seq, err := Eval(e, NewContext(st))
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if got := asStrings(seq); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
		if probe.ended != len(probe.begun) {
			t.Errorf("%s: %d reads ahead began, %d ended", src, len(probe.begun), probe.ended)
		}
	}
}

// withAhead gives every for clause of e's top FLWORs the probe.
func withAhead(e Expr, probe ReadAhead) {
	fl, ok := e.(*FLWOR)
	if !ok {
		return
	}
	for i, cl := range fl.Clauses {
		if fc, ok := cl.(ForClause); ok {
			fc.Ahead = probe
			fl.Clauses[i] = fc
		}
	}
	withAhead(fl.Return, probe)
}
