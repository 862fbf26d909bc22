package xq

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

var evalAt = time.Date(2003, time.November, 15, 12, 0, 0, 0, time.UTC)

// creditView is the materialized temporal view of the running example
// (§3.1), used as the evaluation fixture.
const creditView = `<creditAccounts>
  <account id="1234" vtFrom="1998-10-10T12:20:22" vtTo="now">
    <customer>John Smith</customer>
    <creditLimit vtFrom="1998-10-10T12:20:22" vtTo="2001-04-23T23:11:08">2000</creditLimit>
    <creditLimit vtFrom="2001-04-23T23:11:08" vtTo="now">5000</creditLimit>
    <transaction id="12345" vtFrom="2003-11-10T12:23:34" vtTo="2003-11-10T12:23:34">
      <vendor>Southlake Pizza</vendor>
      <amount>3800.20</amount>
      <status vtFrom="2003-11-10T12:24:35" vtTo="now">charged</status>
    </transaction>
    <transaction id="12346" vtFrom="2003-09-10T14:30:12" vtTo="2003-09-10T14:30:12">
      <vendor>ResAris Contaceu</vendor>
      <amount>1200</amount>
      <status vtFrom="2003-09-10T14:30:13" vtTo="2003-11-01T10:12:56">charged</status>
      <status vtFrom="2003-11-01T10:12:56" vtTo="now">suspended</status>
    </transaction>
  </account>
  <account id="5678" vtFrom="2000-01-01T00:00:00" vtTo="now">
    <customer>Jane Doe</customer>
    <creditLimit vtFrom="2000-01-01T00:00:00" vtTo="now">1000</creditLimit>
    <transaction id="22222" vtFrom="2003-11-12T09:00:00" vtTo="2003-11-12T09:00:00">
      <vendor>BookShop</vendor>
      <amount>950</amount>
      <status vtFrom="2003-11-12T09:00:01" vtTo="now">charged</status>
    </transaction>
  </account>
</creditAccounts>`

// run evaluates src with $doc bound to the credit view root.
func run(t *testing.T, src string, extra ...func(*Static)) Sequence {
	t.Helper()
	seq, err := tryRun(src, extra...)
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return seq
}

func tryRun(src string, extra ...func(*Static)) (Sequence, error) {
	e, err := Parse(src)
	if err != nil {
		return nil, err
	}
	static := &Static{Now: evalAt}
	for _, f := range extra {
		f(static)
	}
	doc := xmldom.MustParseString(creditView)
	ctx := NewContext(static).Bind("doc", Singleton(doc.Root()))
	return Eval(e, ctx)
}

func asStrings(seq Sequence) string {
	return strings.Join(Strings(seq), "|")
}

func TestEvalLiteralsAndArithmetic(t *testing.T) {
	cases := map[string]string{
		`1 + 2`:            "3",
		`2 * 3 + 1`:        "7",
		`1 + 2 * 3`:        "7",
		`10 div 4`:         "2.5",
		`10 idiv 4`:        "2",
		`10 mod 3`:         "1",
		`-5 + 2`:           "-3",
		`"a"`:              "a",
		`concat("a", "b")`: "ab",
		`1 = 1`:            "true",
		`1 != 1`:           "false",
		`2 > 1 and 1 < 2`:  "true",
		`1 > 2 or 2 > 1`:   "true",
		`not(1 = 2)`:       "true",
	}
	for src, want := range cases {
		if got := asStrings(run(t, src)); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestEvalDateTimeArithmetic(t *testing.T) {
	got := run(t, `2003-10-23T12:23:34 + PT1M`)
	if asStrings(got) != "2003-10-23T12:24:34" {
		t.Fatalf("dateTime+duration = %v", asStrings(got))
	}
	got = run(t, `now - PT1H`)
	dt := got[0].(xtime.DateTime)
	if want := evalAt.Add(-time.Hour); !dt.Resolve(evalAt).Equal(want) {
		t.Fatalf("now-PT1H = %v", dt.Resolve(evalAt))
	}
	// dateTime - dateTime = duration in seconds
	got = run(t, `2003-01-01T00:01:00 - 2003-01-01T00:00:00`)
	if d := got[0].(xtime.Duration); d.Seconds != 60 {
		t.Fatalf("dateTime diff = %v", d)
	}
	// dateTime + number of seconds (paper's traffic-light example)
	got = run(t, `2003-01-01T00:00:00 + 90`)
	if asStrings(got) != "2003-01-01T00:01:30" {
		t.Fatalf("dateTime+seconds = %v", asStrings(got))
	}
}

func TestEvalPaths(t *testing.T) {
	if got := run(t, `$doc/account/customer`); len(got) != 2 {
		t.Fatalf("customers = %d", len(got))
	}
	if got := run(t, `$doc//vendor`); len(got) != 3 {
		t.Fatalf("vendors = %d", len(got))
	}
	if got := asStrings(run(t, `$doc/account/@id`)); got != "1234|5678" {
		t.Fatalf("ids = %q", got)
	}
	if got := run(t, `$doc/account/*`); len(got) != 8 {
		t.Fatalf("wildcard children = %d", len(got))
	}
	if got := run(t, `$doc/nothing`); len(got) != 0 {
		t.Fatal("missing element should be empty")
	}
	// text() nodes
	if got := asStrings(run(t, `$doc//customer/text()`)); got != "John Smith|Jane Doe" {
		t.Fatalf("text() = %q", got)
	}
	// a descendant step over overlapping contexts deduplicates
	if got := run(t, `for $x in ($doc, $doc/account) return count($x//status)`); asStrings(got) != "4|3|1" {
		t.Fatalf("descendant counts = %q", asStrings(got))
	}
}

func TestEvalPredicates(t *testing.T) {
	got := run(t, `$doc//transaction[amount > 1000]`)
	if len(got) != 2 {
		t.Fatalf("amount > 1000: %d", len(got))
	}
	// positional predicate
	got = run(t, `$doc/account[1]/customer`)
	if asStrings(got) != "John Smith" {
		t.Fatalf("[1] = %q", asStrings(got))
	}
	got = run(t, `$doc/account[2]/customer`)
	if asStrings(got) != "Jane Doe" {
		t.Fatalf("[2] = %q", asStrings(got))
	}
	// position()/last()
	got = run(t, `$doc/account[position() = last()]/customer`)
	if asStrings(got) != "Jane Doe" {
		t.Fatalf("last() = %q", asStrings(got))
	}
	// existential predicate over multiple status versions (§6 example: the
	// suspended transaction still matches status = "charged")
	got = run(t, `$doc//transaction[amount > 1000][status = "charged"]`)
	if len(got) != 2 {
		t.Fatalf("existential semantics: %d", len(got))
	}
	// predicates are per-context-node: second transaction of account 1
	got = run(t, `$doc/account/transaction[2]`)
	if len(got) != 1 {
		t.Fatalf("per-parent positions: %d", len(got))
	}
}

func TestEvalComparisonsCoercion(t *testing.T) {
	// node vs number coerces numerically
	if !EffectiveBool(run(t, `$doc//amount = 1200`)) {
		t.Fatal("numeric coercion")
	}
	// node vs string
	if !EffectiveBool(run(t, `$doc//status = "suspended"`)) {
		t.Fatal("string comparison")
	}
	// dateTime comparison from attributes
	if !EffectiveBool(run(t, `$doc/account/@vtFrom < 2003-01-01`)) {
		t.Fatal("dateTime attr comparison")
	}
	// empty sequence comparisons are false
	if EffectiveBool(run(t, `$doc/nothing = 1`)) {
		t.Fatal("empty = 1 should be false")
	}
}

func TestEvalFLWOR(t *testing.T) {
	got := run(t, `for $a in $doc/account return $a/customer`)
	if asStrings(got) != "John Smith|Jane Doe" {
		t.Fatalf("flwor = %q", asStrings(got))
	}
	got = run(t, `for $a in $doc/account where $a/@id = "5678" return $a/customer`)
	if asStrings(got) != "Jane Doe" {
		t.Fatalf("where = %q", asStrings(got))
	}
	got = run(t, `for $a at $i in $doc/account return $i`)
	if asStrings(got) != "1|2" {
		t.Fatalf("at = %q", asStrings(got))
	}
	got = run(t, `for $a in $doc/account let $n := count($a/transaction) return $n`)
	if asStrings(got) != "2|1" {
		t.Fatalf("let = %q", asStrings(got))
	}
	got = run(t, `for $t in $doc//transaction order by number($t/amount) return $t/amount`)
	if asStrings(got) != "950|1200|3800.20" {
		t.Fatalf("order by = %q", asStrings(got))
	}
	got = run(t, `for $t in $doc//transaction order by number($t/amount) descending return $t/amount`)
	if asStrings(got) != "3800.20|1200|950" {
		t.Fatalf("order by desc = %q", asStrings(got))
	}
	// cartesian product of two for clauses
	got = run(t, `for $a in $doc/account $b in $doc/account return concat($a/@id, "-", $b/@id)`)
	if len(got) != 4 {
		t.Fatalf("product = %d", len(got))
	}
}

func TestEvalQuantified(t *testing.T) {
	if !EffectiveBool(run(t, `some $t in $doc//transaction satisfies $t/amount > 3000`)) {
		t.Fatal("some")
	}
	if EffectiveBool(run(t, `every $t in $doc//transaction satisfies $t/amount > 3000`)) {
		t.Fatal("every")
	}
	if !EffectiveBool(run(t, `every $t in $doc//transaction satisfies $t/amount > 100`)) {
		t.Fatal("every (all pass)")
	}
	// empty input: some=false, every=true
	if EffectiveBool(run(t, `some $t in $doc/nothing satisfies 1 = 1`)) {
		t.Fatal("some over empty")
	}
	if !EffectiveBool(run(t, `every $t in $doc/nothing satisfies 1 = 2`)) {
		t.Fatal("every over empty")
	}
}

func TestEvalAggregates(t *testing.T) {
	cases := map[string]string{
		`count($doc//transaction)`:        "3",
		`sum($doc//transaction/amount)`:   FormatNumber(3800.20 + 1200 + 950),
		`avg((2, 4, 6))`:                  "4",
		`min((3, 1, 2))`:                  "1",
		`max((3, 1, 2))`:                  "3",
		`max($doc//amount)`:               "3800.20",
		`count(())`:                       "0",
		`sum(())`:                         "0",
		`max((2003-01-01, 2004-01-01))`:   "2004-01-01T00:00:00",
		`exists($doc/account)`:            "true",
		`empty($doc/account)`:             "false",
		`distinct-values($doc//status)`:   "charged|suspended",
		`string-join(("a","b","c"), "-")`: "a-b-c",
	}
	for src, want := range cases {
		if got := asStrings(run(t, src)); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestEvalStringFunctions(t *testing.T) {
	cases := map[string]string{
		`contains("hello", "ell")`:     "true",
		`starts-with("hello", "he")`:   "true",
		`ends-with("hello", "lo")`:     "true",
		`substring("hello", 2)`:        "ello",
		`substring("hello", 2, 3)`:     "ell",
		`string-length("hello")`:       "5",
		`upper-case("abc")`:            "ABC",
		`lower-case("ABC")`:            "abc",
		`normalize-space("  a   b  ")`: "a b",
		`name($doc)`:                   "creditAccounts",
		`string(42)`:                   "42",
		`number("42") + 1`:             "43",
	}
	for src, want := range cases {
		if got := asStrings(run(t, src)); got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestEvalConstructors(t *testing.T) {
	got := run(t, `<alert level="high">problem</alert>`)
	el := got[0].(*xmldom.Node)
	if el.Name != "alert" || el.AttrOr("level", "") != "high" || el.Text() != "problem" {
		t.Fatalf("ctor = %s", el)
	}
	// embedded expressions and attribute items
	got = run(t, `for $a in $doc/account[1] return
	  <account>{ attribute id {$a/@id}, $a/customer }</account>`)
	el = got[0].(*xmldom.Node)
	if el.AttrOr("id", "") != "1234" {
		t.Fatalf("attribute ctor: %s", el)
	}
	if el.FirstChildElement("customer") == nil {
		t.Fatal("copied child")
	}
	// copied nodes are clones, not aliases
	orig := run(t, `$doc/account[1]/customer`)[0].(*xmldom.Node)
	copied := el.FirstChildElement("customer")
	if orig == copied {
		t.Fatal("constructor must copy nodes")
	}
	// attribute value with embedded expr
	got = run(t, `for $a in $doc/account[1] return <x id="{$a/@id}-v"/>`)
	if got[0].(*xmldom.Node).AttrOr("id", "") != "1234-v" {
		t.Fatal("attr template")
	}
	// adjacent atomics joined with spaces
	got = run(t, `<x>{ 1, 2, "three" }</x>`)
	if got[0].(*xmldom.Node).Text() != "1 2 three" {
		t.Fatalf("atomics = %q", got[0].(*xmldom.Node).Text())
	}
	// computed element with dynamic name
	got = run(t, `element {concat("a","b")} { "x" }`)
	if got[0].(*xmldom.Node).Name != "ab" {
		t.Fatal("computed name")
	}
}

func TestEvalIf(t *testing.T) {
	if got := asStrings(run(t, `if (1 < 2) then "yes" else "no"`)); got != "yes" {
		t.Fatalf("if = %q", got)
	}
	if got := asStrings(run(t, `if ($doc/nothing) then "yes" else "no"`)); got != "no" {
		t.Fatalf("if empty = %q", got)
	}
}

func TestEvalIntervalProjection(t *testing.T) {
	// the November window keeps only November transactions
	got := run(t, `$doc/account/transaction?[2003-11-01,2003-12-01]`)
	if len(got) != 2 {
		t.Fatalf("November transactions = %d", len(got))
	}
	// current creditLimit only
	got = run(t, `$doc/account[1]/creditLimit?[now]`)
	if asStrings(got) != "5000" {
		t.Fatalf("?[now] = %q", asStrings(got))
	}
	// arithmetic endpoints
	got = run(t, `$doc/account/transaction?[now-P7D,now]`)
	if len(got) != 2 {
		t.Fatalf("last week = %d", len(got))
	}
	// default lifetime ?[start,now] keeps everything
	got = run(t, `$doc/account/transaction?[start,now]`)
	if len(got) != 3 {
		t.Fatalf("[start,now] = %d", len(got))
	}
}

func TestEvalVersionProjection(t *testing.T) {
	got := run(t, `$doc/account[1]/creditLimit#[1]`)
	if asStrings(got) != "2000" {
		t.Fatalf("#[1] = %q", asStrings(got))
	}
	got = run(t, `$doc/account[1]/creditLimit#[last]`)
	if asStrings(got) != "5000" {
		t.Fatalf("#[last] = %q", asStrings(got))
	}
	got = run(t, `$doc/account[1]/creditLimit#[1,10]`)
	if len(got) != 2 {
		t.Fatalf("#[1,10] = %d", len(got))
	}
}

func TestEvalVtFromVtTo(t *testing.T) {
	got := run(t, `vtFrom($doc/account[1])`)
	if asStrings(got) != "1998-10-10T12:20:22" {
		t.Fatalf("vtFrom = %q", asStrings(got))
	}
	got = run(t, `vtTo($doc/account[1])`)
	if asStrings(got) != "now" {
		t.Fatalf("vtTo = %q", asStrings(got))
	}
	// derived lifespan for unannotated elements covers children
	got = run(t, `vtFrom($doc)`)
	if asStrings(got) != "1998-10-10T12:20:22" {
		t.Fatalf("derived vtFrom = %q", asStrings(got))
	}
}

func TestEvalAllenComparisons(t *testing.T) {
	// transaction in September is before one in November
	src := `$doc//transaction[@id = "12346"] before $doc//transaction[@id = "12345"]`
	if !EffectiveBool(run(t, src)) {
		t.Fatal("before")
	}
	src = `$doc//transaction[@id = "12345"] after $doc//transaction[@id = "12346"]`
	if !EffectiveBool(run(t, src)) {
		t.Fatal("after")
	}
	// a dateTime literal pair acts as an interval
	if !EffectiveBool(run(t, `(2003-01-01, 2003-02-01) before (2003-03-01, 2003-04-01)`)) {
		t.Fatal("literal intervals")
	}
	if !EffectiveBool(run(t, `$doc//transaction[@id = "12345"] during $doc/account[1]`)) {
		t.Fatal("during account lifespan")
	}
}

func TestEvalPaperQuery2Shape(t *testing.T) {
	// Query 2 (fraud): transactions within an hour totalling >= max(90% of
	// limit, 5000). With our fixture nothing alerts at evalAt, but moving
	// "now" next to the big charge does.
	src := `for $a in $doc/account
	where sum($a/transaction?[now-PT1H,now][status = "charged"]/amount) >=
	      max(($a/creditLimit?[now] * 0.9, 5000))
	return <alert><account id={$a/@id}>{$a/customer}</account></alert>`
	got := run(t, src)
	if len(got) != 0 {
		t.Fatalf("no alert expected at %v, got %v", evalAt, asStrings(got))
	}
	// Re-evaluate with now = just after the 3800.20 charge and a lowered
	// threshold via the creditLimit (5000*0.9=4500 > 3800.2, so still no
	// alert; use the raw sum check instead)
	at := time.Date(2003, time.November, 10, 13, 0, 0, 0, time.UTC)
	sumSrc := `sum($doc/account[1]/transaction?[now-PT1H,now][status = "charged"]/amount)`
	seq, err := tryRun(sumSrc, func(s *Static) { s.Now = at })
	if err != nil {
		t.Fatal(err)
	}
	if asStrings(seq) != "3800.20" && asStrings(seq) != "3800.2" {
		t.Fatalf("hour window sum = %q", asStrings(seq))
	}
}

func TestEvalUserFunctions(t *testing.T) {
	dist := func(_ *Context, args []Sequence) (Sequence, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("distance wants 2 args")
		}
		return Singleton(NumberValue(args[0][0]) - NumberValue(args[1][0])), nil
	}
	seq, err := tryRun(`distance(10, 4)`, func(s *Static) {
		s.Funcs = map[string]Func{"distance": dist}
	})
	if err != nil {
		t.Fatal(err)
	}
	if asStrings(seq) != "6" {
		t.Fatalf("user func = %q", asStrings(seq))
	}
}

func TestEvalErrors(t *testing.T) {
	cases := []string{
		`$undefined`,
		`unknownFunc(1)`,
		`count(1, 2)`, // wrong arity
		`.`,           // context item undefined at top level
		`doc("x")`,    // no doc resolver
		`stream("x")`, // no stream resolver
		`10 idiv 0`,   // integer division by zero
		`$doc?[1,2]`,  // endpoint not a dateTime... (number) -> error
	}
	for _, src := range cases {
		if _, err := tryRun(src); err == nil {
			t.Errorf("%s: expected error", src)
		}
	}
}

func TestEvalStreamResolver(t *testing.T) {
	doc := xmldom.MustParseString(creditView)
	seq, err := tryRun(`stream("credit")//customer`, func(s *Static) {
		s.Stream = func(name string) (Sequence, error) {
			if name != "credit" {
				return nil, fmt.Errorf("unknown stream %q", name)
			}
			return Singleton(doc.Root()), nil
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 2 {
		t.Fatalf("stream query = %d", len(seq))
	}
}

func TestEvalDocResolver(t *testing.T) {
	doc := xmldom.MustParseString(`<r><x>1</x></r>`)
	seq, err := tryRun(`doc("test.xml")/r/x`, func(s *Static) {
		s.Doc = func(uri string) (*xmldom.Node, error) { return doc, nil }
	})
	if err != nil {
		t.Fatal(err)
	}
	if asStrings(seq) != "1" {
		t.Fatalf("doc() = %q", asStrings(seq))
	}
}

func TestEvalRootAnchoredPath(t *testing.T) {
	// leading / resolves through root() of the context item: the document
	// itself, or the document the enclosing path started from
	doc := xmldom.MustParseString(creditView)
	for _, c := range []struct{ src, want string }{
		{`/creditAccounts/account[1]/@id`, "1234"},
		{`count(creditAccounts/account[/creditAccounts/account[1]/@id = @id])`, "1"},
	} {
		ctx := NewContext(&Static{Now: evalAt}).WithItem(doc, 1, 1)
		seq, err := Eval(MustParse(c.src), ctx)
		if err != nil {
			t.Fatal(err)
		}
		if asStrings(seq) != c.want {
			t.Errorf("%s = %q, want %q", c.src, asStrings(seq), c.want)
		}
	}
	// a node the evaluation did not reach from a document is its own root
	acct := doc.Root().ChildElements("account")[0]
	seq, err := Eval(MustParse(`root(.)/@id`), NewContext(&Static{Now: evalAt}).WithItem(acct, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if asStrings(seq) != "1234" {
		t.Fatalf("root(.) of a parentless element = %q", asStrings(seq))
	}
}
