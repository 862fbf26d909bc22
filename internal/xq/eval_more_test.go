package xq

import (
	"math"
	"strings"
	"testing"

	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

func TestEvalDurationArithmeticInQueries(t *testing.T) {
	cases := map[string]string{
		`PT30M + PT45M`:           "PT75M",
		`PT1H - PT15M`:            "PT1H-15M", // mixed components apply correctly
		`2003-01-01 + P1D`:        "2003-01-02T00:00:00",
		`2003-01-02 - P1D`:        "2003-01-01T00:00:00",
		`2003-03-01 - 2003-02-01`: "PT2419200S", // 28 days in seconds
		`2003-01-01 + P1Y2M`:      "2004-03-01T00:00:00",
	}
	for src, want := range cases {
		got := asStrings(run(t, src))
		if got != want {
			t.Errorf("%s = %q, want %q", src, got, want)
		}
	}
}

func TestEvalOrderByDateTimeKeys(t *testing.T) {
	got := run(t, `for $t in $doc//transaction order by vtFrom($t) return $t/@id`)
	if asStrings(got) != "12346|12345|22222" {
		t.Fatalf("order = %q", asStrings(got))
	}
	got = run(t, `for $t in $doc//transaction order by vtFrom($t) descending return $t/@id`)
	if asStrings(got) != "22222|12345|12346" {
		t.Fatalf("desc order = %q", asStrings(got))
	}
}

func TestEvalOrderByMultipleKeys(t *testing.T) {
	got := run(t, `for $s in $doc//status
	               order by string($s), vtFrom($s) descending
	               return concat($s, "@", string(vtFrom($s)))`)
	items := strings.Split(asStrings(got), "|")
	if len(items) != 4 {
		t.Fatalf("items = %v", items)
	}
	if !strings.HasPrefix(items[0], "charged@2003-11-12") {
		t.Fatalf("first = %q (charged group, latest first)", items[0])
	}
	if !strings.HasPrefix(items[3], "suspended@") {
		t.Fatalf("last = %q", items[3])
	}
}

func TestEvalNestedFLWOR(t *testing.T) {
	got := run(t, `for $a in $doc/account
	               return count(for $t in $a/transaction
	                            where $t/status = "charged"
	                            return $t)`)
	if asStrings(got) != "2|1" {
		t.Fatalf("nested = %q", asStrings(got))
	}
}

func TestEvalLetShadowing(t *testing.T) {
	got := run(t, `let $x := 1 let $x := $x + 1 return $x`)
	if asStrings(got) != "2" {
		t.Fatalf("shadow = %q", asStrings(got))
	}
}

func TestEvalEmptySequenceArithmetic(t *testing.T) {
	for _, src := range []string{`$doc/nothing + 1`, `1 + $doc/nothing`, `-$doc/nothing`} {
		if got := run(t, src); len(got) != 0 {
			t.Errorf("%s = %v, want empty", src, got)
		}
	}
}

func TestEvalNaNPropagation(t *testing.T) {
	got := run(t, `number("not a number")`)
	if f, ok := got[0].(float64); !ok || !math.IsNaN(f) {
		t.Fatalf("got %v", got[0])
	}
	// NaN comparisons are false
	if EffectiveBool(run(t, `number("x") = number("x")`)) {
		t.Fatal("NaN = NaN should be false")
	}
	if EffectiveBool(run(t, `number("x") < 1`)) {
		t.Fatal("NaN < 1 should be false")
	}
}

func TestEvalValueComparisons(t *testing.T) {
	cases := map[string]bool{
		`1 eq 1`:                   true,
		`1 ne 2`:                   true,
		`1 lt 2`:                   true,
		`2 le 2`:                   true,
		`3 gt 2`:                   true,
		`3 ge 4`:                   false,
		`"abc" lt "abd"`:           true,
		`2003-01-01 lt 2003-02-01`: true,
	}
	for src, want := range cases {
		if got := EffectiveBool(run(t, src)); got != want {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	// value comparison with empty operand yields empty
	if got := run(t, `$doc/nothing eq 1`); len(got) != 0 {
		t.Fatalf("empty eq = %v", got)
	}
}

func TestEvalStringsOnNodesWithMarkup(t *testing.T) {
	got := run(t, `string($doc/account[1]/transaction[1])`)
	s := asStrings(got)
	if !strings.Contains(s, "Southlake Pizza") || strings.Contains(s, "<") {
		t.Fatalf("string() = %q", s)
	}
}

func TestEvalAttrProjectionOnSequence(t *testing.T) {
	got := run(t, `$doc//transaction/@id`)
	if asStrings(got) != "12345|12346|22222" {
		t.Fatalf("ids = %q", asStrings(got))
	}
	// @* returns all attributes
	got = run(t, `count($doc/account[1]/@*)`)
	if asStrings(got) != "3" { // id, vtFrom, vtTo
		t.Fatalf("@* = %q", asStrings(got))
	}
}

func TestEvalPositionVariableInProduct(t *testing.T) {
	got := run(t, `for $a at $i in $doc/account
	               for $t at $j in $a/transaction
	               return concat($i, ".", $j)`)
	if asStrings(got) != "1.1|1.2|2.1" {
		t.Fatalf("positions = %q", asStrings(got))
	}
}

func TestEvalConstructedTreeQueriedFurther(t *testing.T) {
	// querying into freshly constructed elements
	got := run(t, `for $x in <wrap><v>1</v><v>2</v></wrap> return sum($x/v)`)
	if asStrings(got) != "3" {
		t.Fatalf("constructed = %q", asStrings(got))
	}
}

func TestEvalIntervalProjWithDynamicEndpoints(t *testing.T) {
	// endpoints computed from another element's lifespan (coincidence
	// pattern): transactions within the account's first month
	got := run(t, `for $a in $doc/account[2]
	               return count($a/transaction?[vtFrom($a),vtFrom($a)+P30D])`)
	if asStrings(got) != "0" {
		t.Fatalf("early window = %q", asStrings(got))
	}
	got = run(t, `for $a in $doc/account[2]
	               return count($a/transaction?[vtFrom($a),vtTo($a)])`)
	if asStrings(got) != "1" {
		t.Fatalf("full lifespan window = %q", asStrings(got))
	}
}

func TestEvalDeepCloneSafetyOfProjection(t *testing.T) {
	// projections must not mutate the underlying document
	before := run(t, `string($doc/account[1]/creditLimit[1]/@vtTo)`)
	_ = run(t, `$doc/account[1]/creditLimit?[1999-01-01,2000-01-01]`)
	after := run(t, `string($doc/account[1]/creditLimit[1]/@vtTo)`)
	if asStrings(before) != asStrings(after) {
		t.Fatal("projection mutated the source document")
	}
}

func TestEvalTimeFormatting(t *testing.T) {
	got := run(t, `string(2003-10-23T12:23:34)`)
	if asStrings(got) != "2003-10-23T12:23:34" {
		t.Fatalf("format = %q", asStrings(got))
	}
	got = run(t, `string(now)`)
	if asStrings(got) != "now" {
		t.Fatalf("now formats symbolically: %q", asStrings(got))
	}
}

func TestSequenceIntervalFromDateTimePair(t *testing.T) {
	iv, ok := sequenceInterval(Sequence{xtime.MustParse("2003-01-01T00:00:00"), xtime.MustParse("2003-02-01T00:00:00")}, &Static{Now: evalAt})
	if !ok || iv.From.String() != "2003-01-01T00:00:00" || iv.To.String() != "2003-02-01T00:00:00" {
		t.Fatalf("pair interval = %v ok=%v", iv, ok)
	}
	if _, ok := sequenceInterval(Sequence{}, &Static{Now: evalAt}); ok {
		t.Fatal("empty sequence has no interval")
	}
	if _, ok := sequenceInterval(Sequence{true}, &Static{Now: evalAt}); ok {
		t.Fatal("boolean has no interval")
	}
}

func TestEvalHoleResolutionFallbackInPlainSteps(t *testing.T) {
	// a raw fragment tree queried with a resolver behaves like the view
	frag := xmldom.MustParseString(`<account><customer>A</customer><hole id="7" tsid="4"/></account>`).Root()
	resolver := func(id int) []*xmldom.Node {
		if id != 7 {
			return nil
		}
		el := xmldom.MustParseString(`<creditLimit vtFrom="2003-01-01T00:00:00" vtTo="now">900</creditLimit>`).Root()
		return []*xmldom.Node{el}
	}
	static := &Static{Now: evalAt, Holes: resolver}
	ctx := NewContext(static).Bind("f", Singleton(frag))
	seq, err := Eval(MustParse(`$f/creditLimit`), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if asStrings(seq) != "900" {
		t.Fatalf("resolved step = %q", asStrings(seq))
	}
	// descendant too
	seq, err = Eval(MustParse(`count($f//creditLimit)`), ctx)
	if err != nil || asStrings(seq) != "1" {
		t.Fatalf("descendant resolution = %v %v", seq, err)
	}
	// without a resolver the hole is skipped silently
	ctx2 := NewContext(&Static{Now: evalAt}).Bind("f", Singleton(frag))
	seq, err = Eval(MustParse(`count($f/creditLimit)`), ctx2)
	if err != nil || asStrings(seq) != "0" {
		t.Fatalf("unresolved = %v %v", seq, err)
	}
}
