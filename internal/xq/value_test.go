package xq

import (
	"math"
	"testing"
	"time"

	"xcql/internal/xmldom"
)

// The numeric lexical forms a comparison reads: XQuery's, and nothing of
// what strconv.ParseFloat takes beyond them.
func TestNumericLexicalForms(t *testing.T) {
	nan := math.NaN()
	for _, c := range []struct {
		in   string
		want float64
	}{
		{"0", 0}, {"40", 40}, {"+40", 40}, {"-40", -40}, {"40.", 40}, {".5", 0.5}, {"-.5", -0.5},
		{"3800.20", 3800.2}, {"1e3", 1000}, {"1E3", 1000}, {"1.5e-2", 0.015}, {"2e+2", 200},
		{"  12  ", 12}, {"\n7\t", 7}, {"007", 7},
		{"INF", math.Inf(1)}, {"-INF", math.Inf(-1)}, {"NaN", nan},
		{"", nan}, {" ", nan}, {".", nan}, {"+", nan}, {"-", nan}, {"e3", nan}, {"1e", nan}, {"1e+", nan},
		{"1 2", nan}, {"1,000", nan}, {"12abc", nan}, {"person0", nan}, {"--1", nan}, {"1.2.3", nan},
		// what ParseFloat accepts and XQuery does not
		{"inf", nan}, {"Inf", nan}, {"+INF", nan}, {"Infinity", nan}, {"-infinity", nan}, {"nan", nan},
		{"0x10", nan}, {"0x1p-2", nan}, {"1_000", nan}, {"1e999", nan},
	} {
		got := parseNum(c.in)
		if got != c.want && !(math.IsNaN(got) && math.IsNaN(c.want)) {
			t.Errorf("parseNum(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	for src, want := range map[string]string{
		`"inf" = "Infinity"`: "false", // both were +Inf to ParseFloat
		`"0x10" = "16"`:      "false", // 0x10 was sixteen
		`"16.0" = "16"`:      "true",
		`" 16 " = 16`:        "true",
		`"INF" > 1e300`:      "true",
		`"abc" < "abd"`:      "true",
		`"10" < "9"`:         "false", // two numbers
		`"10" < "9a"`:        "true",  // two strings
	} {
		if got := asStrings(run(t, src)); got != want {
			t.Errorf("%s = %s, want %s", src, got, want)
		}
	}
}

// A literal classified once compares like the same literal met as an item:
// LexicalHolds — what a pushed filter calls — and the evaluator's general
// comparison are one function, whatever the classes of the two sides.
func TestLexicalHoldsMatchesGeneralCompare(t *testing.T) {
	st := &Static{Now: time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC)}
	values := []string{"", "5", " 5 ", "5.0", "40", "abc", "person0", "INF", "inf", "true", "now", "start",
		"2003-11-01", "2003-11-01T00:00:00", " 2003-11-01T00:00:00 ", "2004-06-01T00:00:00Z", "PT1H"}
	literals := []Item{"5", " 5", "abc", "", "2003-11-01T00:00:00", "now", 5.0, 40.0, math.Inf(1), math.NaN(), true,
		run(t, `2003-11-01T00:00:00`)[0], run(t, `now`)[0], run(t, `PT1H`)[0]}
	for _, lit := range literals {
		c := ClassifyLiteral(lit)
		for _, v := range values {
			for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
				want := generalCompare(op, Sequence{AttrItem{Name: "a", Value: v}}, Sequence{lit}, st)
				if got := LexicalHolds(op, v, &c, st); got != want {
					t.Errorf("%q %s %v: LexicalHolds %v, general comparison %v", v, op, lit, got, want)
				}
				if node := generalCompare(op, Sequence{xmldom.TextElem("e", v)}, Sequence{lit}, st); node != want {
					t.Errorf("<e>%s</e> %s %v: %v as an element, %v as an attribute", v, op, lit, node, want)
				}
			}
		}
	}
}

// A comparison of document values allocates nothing: no atomized copies of
// the operands, no error value for each parse that turns a string away.
func TestComparisonAllocatesNothing(t *testing.T) {
	st := &Static{Now: time.Date(2004, 1, 1, 0, 0, 0, 0, time.UTC)}
	price := xmldom.TextElem("price", "41.50")
	for _, c := range []struct {
		name string
		l, r Sequence
	}{
		{"attribute = string", Sequence{AttrItem{Name: "id", Value: "person17"}}, Sequence{"person0"}},
		{"element >= number", Sequence{price}, Sequence{40.0}},
		{"attribute < dateTime string", Sequence{AttrItem{Name: "at", Value: "2003-11-01T00:00:00"}}, Sequence{"2004-01-01T00:00:00"}},
	} {
		if n := testing.AllocsPerRun(100, func() { generalCompare("=", c.l, c.r, st) }); n != 0 {
			t.Errorf("%s: %v allocations per comparison", c.name, n)
		}
	}
}
