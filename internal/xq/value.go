// Package xq is a from-scratch XQuery-subset engine — the substrate the
// paper assumed by using the Qizx processor. It covers everything the
// paper's queries need: FLWOR expressions (for/at/let/where/order by/
// return), quantified expressions, conditionals, path expressions with
// child/descendant/attribute steps and predicates, direct and computed
// element/attribute constructors, arithmetic with dateTime/duration
// support, general comparisons with existential semantics, Allen interval
// comparisons, aggregates, and a user-extensible function registry.
//
// The XCQL temporal syntax (?[..], #[..], stream()) parses into the same
// AST; package xcql compiles those nodes away into engine primitives per
// the paper's Figure 3.
package xq

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// Item is one value in the XQuery data model. Dynamic type is one of:
//
//	*xmldom.Node   — element/text/document node
//	AttrItem       — an attribute (name + string value)
//	string, float64, bool
//	xtime.DateTime, xtime.Duration
//
// A node item is read-only, whoever produced it: it may be — or may share
// subtrees with — a stored filler payload, a standing
// query's buffer or another result (see the ownership rule in xmldom).
// Node identity is pointer identity, so the same stored element reached
// twice is one node to a path step's duplicate elimination. Clone a node
// to get a tree to change.
type Item any

// AttrItem is an attribute produced by an @name step or an attribute
// constructor.
type AttrItem struct {
	Name  string
	Value string
}

// Sequence is the universal result type: every expression evaluates to a
// flat, ordered sequence of items (possibly empty).
type Sequence []Item

// Singleton wraps one item.
func Singleton(it Item) Sequence { return Sequence{it} }

// trueSeq and falseSeq are the two boolean values, built once: a sequence
// an evaluation returns is read-only, as a literal's is, so a comparison
// or a test allocates no sequence for its answer.
var trueSeq, falseSeq = Sequence{true}, Sequence{false}

func boolSeq(b bool) Sequence {
	if b {
		return trueSeq
	}
	return falseSeq
}

// StringValue returns the string value of an item: text content of nodes,
// lexical form of atomics.
func StringValue(it Item) string {
	switch v := it.(type) {
	case *xmldom.Node:
		return v.Text()
	case AttrItem:
		return v.Value
	case string:
		return v
	case float64:
		return FormatNumber(v)
	case bool:
		if v {
			return "true"
		}
		return "false"
	case xtime.DateTime:
		return v.String()
	case xtime.Duration:
		return v.String()
	case nil:
		return ""
	default:
		return fmt.Sprintf("%v", v)
	}
}

// FormatNumber renders a float the XPath way: integers without a decimal
// point, NaN as "NaN".
func FormatNumber(f float64) string {
	if math.IsNaN(f) {
		return "NaN"
	}
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// NumberValue converts an item to a number; unconvertible values yield
// NaN, as in XPath.
func NumberValue(it Item) float64 {
	switch v := it.(type) {
	case float64:
		return v
	case bool:
		if v {
			return 1
		}
		return 0
	case string:
		return parseNum(v)
	case *xmldom.Node:
		return parseNum(v.Text())
	case AttrItem:
		return parseNum(v.Value)
	default:
		return math.NaN()
	}
}

// parseNum reads s, whitespace aside, as an XQuery numeric literal: an
// optional sign, digits with an optional point, an optional exponent, or
// one of INF, -INF and NaN. Anything else is NaN, decided from its bytes:
// strconv.ParseFloat also takes "inf", "Infinity", hex floats and digit
// separators, and allocates an error for every string it turns away —
// which, in a comparison, is most strings.
func parseNum(s string) float64 {
	s = strings.TrimSpace(s)
	if !numericLexical(s) {
		switch s {
		case "INF":
			return math.Inf(1)
		case "-INF":
			return math.Inf(-1)
		}
		return math.NaN()
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return math.NaN()
	}
	return f
}

// numericLexical reports whether s is [+-]? (digits [. digits*]? | . digits)
// ([eE] [+-]? digits)?.
func numericLexical(s string) bool {
	i := 0
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	digits := func() int {
		start := i
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
		return i - start
	}
	mantissa := digits()
	if i < len(s) && s[i] == '.' {
		i++
		mantissa += digits()
	}
	if mantissa == 0 {
		return false
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if digits() == 0 {
			return false
		}
	}
	return i == len(s)
}

// DateTimeValue attempts to interpret an item as a dateTime: native
// values pass through; node/string content is parsed. ok is false when the
// lexical form is not a dateTime.
func DateTimeValue(it Item) (xtime.DateTime, bool) {
	switch v := it.(type) {
	case xtime.DateTime:
		return v, true
	case string:
		return xtime.TryParse(v)
	case *xmldom.Node:
		return xtime.TryParse(v.Text())
	case AttrItem:
		return xtime.TryParse(v.Value)
	default:
		return xtime.DateTime{}, false
	}
}

// EffectiveBool computes the effective boolean value of a sequence: empty
// is false; a sequence whose first item is a node is true; a singleton
// atomic follows its type's rule; other sequences are errors in XQuery but
// we take truth of the first item for robustness.
func EffectiveBool(seq Sequence) bool {
	if len(seq) == 0 {
		return false
	}
	switch v := seq[0].(type) {
	case *xmldom.Node, AttrItem:
		return true
	case bool:
		return v
	case float64:
		return v != 0 && !math.IsNaN(v)
	case string:
		return v != ""
	default:
		return true
	}
}

// Atomize converts nodes to their typed values (string content) and
// passes atomics through.
func Atomize(seq Sequence) Sequence {
	out := make(Sequence, 0, len(seq))
	for _, it := range seq {
		out = append(out, atomic(it))
	}
	return out
}

// AtomizeFirst is Atomize(seq)[0] without the sequence: the typed value of
// seq's first item, nil when seq is empty.
func AtomizeFirst(seq Sequence) Item {
	if len(seq) == 0 {
		return nil
	}
	return atomic(seq[0])
}

// atomic is one item's typed value.
func atomic(it Item) Item {
	switch v := it.(type) {
	case *xmldom.Node:
		return v.Text()
	case AttrItem:
		return v.Value
	}
	return it
}

// Strings maps StringValue over the sequence.
func Strings(seq Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		out[i] = StringValue(it)
	}
	return out
}

// Nodes filters the sequence to its tree nodes.
func Nodes(seq Sequence) []*xmldom.Node {
	var out []*xmldom.Node
	for _, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			out = append(out, n)
		}
	}
	return out
}

// FromNodes builds a sequence from nodes.
func FromNodes(nodes []*xmldom.Node) Sequence {
	out := make(Sequence, len(nodes))
	for i, n := range nodes {
		out[i] = n
	}
	return out
}

// isNaNItem reports whether the item is the typed number NaN, which
// compares false against everything, itself included.
func isNaNItem(it Item) bool {
	f, ok := it.(float64)
	return ok && math.IsNaN(f)
}

// Comparand is one side of a comparison. A value read from a document — a
// string, a node's or an attribute's content — is lexical: the number and
// the dateTime it may spell are parsed when a comparison asks for them. A
// typed item and a literal (ClassifyLiteral) carry theirs from the start,
// and compare probes that side first, so a value compared against the
// literal "person0" is never parsed as a number or a date at all.
type Comparand struct {
	str     string // the lexical form; a typed item renders its own on demand
	typed   Item   // the item, when it is not lexical
	num     float64
	dt      xtime.DateTime
	hasDT   bool
	lexical bool // num, dt and hasDT are still to be read from str
}

// lexicalOf is the comparand of a value as a document spells it.
func lexicalOf(s string) Comparand { return Comparand{str: s, lexical: true} }

// comparandOf classifies an item without parsing anything.
func comparandOf(it Item) Comparand {
	switch v := it.(type) {
	case string:
		return lexicalOf(v)
	case *xmldom.Node:
		return lexicalOf(v.Text())
	case AttrItem:
		return lexicalOf(v.Value)
	case xtime.DateTime:
		return Comparand{typed: it, num: math.NaN(), dt: v, hasDT: true}
	default:
		return Comparand{typed: it, num: NumberValue(it)}
	}
}

// ClassifyLiteral classifies a query literal once, at compile time: a
// string literal is parsed here for the number and the dateTime it may
// spell, so that comparing against it costs the other side only the parses
// the literal's own classes call for.
func ClassifyLiteral(it Item) Comparand {
	c := comparandOf(it)
	if c.lexical {
		c.num = parseNum(c.str)
		c.dt, c.hasDT = xtime.TryParse(c.str)
		c.lexical = false
	}
	return c
}

func (c *Comparand) number() float64 {
	if c.lexical {
		return parseNum(c.str)
	}
	return c.num
}

func (c *Comparand) dateTime() (xtime.DateTime, bool) {
	if c.lexical {
		return xtime.TryParse(c.str)
	}
	return c.dt, c.hasDT
}

func (c *Comparand) text() string {
	if c.typed != nil {
		return StringValue(c.typed)
	}
	return c.str
}

// compare orders a against b for value comparison. It prefers, in order:
// numeric comparison (both are numbers), dateTime comparison, then
// lexicographic comparison of the string values. st.Now resolves symbolic
// dateTimes, and st.Horizon hears of it. This is the one comparison of the
// engine: general and value comparisons, order by, min/max and the
// filters xcql pushes below the access path all end here.
func compare(a, b *Comparand, st *Static) int {
	known, other := a, b
	if a.lexical {
		known, other = b, a
	}
	if n := known.number(); !math.IsNaN(n) {
		if m := other.number(); !math.IsNaN(m) {
			if known != a {
				n, m = m, n
			}
			switch {
			case n < m:
				return -1
			case n > m:
				return 1
			default:
				return 0
			}
		}
	}
	if d, ok := known.dateTime(); ok {
		if e, ok := other.dateTime(); ok {
			if known != a {
				d, e = e, d
			}
			st.Horizon.Observe(d, e)
			return d.Compare(e, st.Now)
		}
	}
	return strings.Compare(a.text(), b.text())
}

// compareAtomic orders two atomized items.
func compareAtomic(a, b Item, st *Static) int {
	ca, cb := comparandOf(a), comparandOf(b)
	return compare(&ca, &cb, st)
}

// holds decides "a op b" for a general comparison operator. The typed
// number NaN compares false against everything, itself included.
func holds(op string, a, b *Comparand, st *Static) bool {
	if isNaNItem(a.typed) || isNaNItem(b.typed) {
		return false
	}
	c := compare(a, b, st)
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// LexicalHolds decides "s op lit" for a value as a document spells it
// against a classified literal — the general comparison of one pair, for a
// caller that holds the value and no sequence (xcql's pushed filters).
func LexicalHolds(op, s string, lit *Comparand, st *Static) bool {
	a := lexicalOf(s)
	return holds(op, &a, lit, st)
}
