package xcql

import (
	"strings"
	"testing"
)

// What the translator pushes below an access call, read off EXPLAIN's
// target lines: the filter on the target whose tag the predicate is on,
// and the rewritten plan free of the predicate when all of it went down;
// the lifespan bound a projection that directly follows a step becomes,
// and the plan free of the projection call.
// Whatever is pushed, every plan returns what CaQ — which has no access
// call to push anything below — returns.
func TestPushdownShapes(t *testing.T) {
	const all = `stream("credit")//transaction`
	const rooted = `stream("credit")/creditAccounts/account`
	for _, tc := range []struct {
		name, src string
		tag       string // the tag of the target that carries the filter
		pushed    string // its filter; "" when nothing may be pushed
		residual  string // what must still show in the rewritten plan
	}{
		// pushed
		{"attribute =, string", all + `[@id = "12345"]`, "transaction", `[@id = "12345"]`, ""},
		{"attribute !=, number", all + `[@id != 12345]`, "transaction", `[@id != 12345]`, ""},
		{"child <", all + `[amount < 1000]`, "transaction", `[amount < 1000]`, ""},
		{"child >=, in where", `for $t in ` + all + ` where $t/amount >= 1200 return $t/vendor`, "transaction", `[amount >= 1200]`, ""},
		{"literal first", `for $t in ` + all + ` where 1200 <= $t/amount return $t/vendor`, "transaction", `[amount >= 1200]`, ""},
		{"dateTime literal", all + `[@id >= 2003-01-01T00:00:00]`, "transaction", `[@id >= 2003-01-01T00:00:00]`, ""},
		{"two conjuncts", all + `[amount > 100 and vendor != "BookShop"]`, "transaction", `[amount > 100][vendor != "BookShop"]`, ""},
		{"two predicates", all + `[amount > 100][vendor != "BookShop"]`, "transaction", `[amount > 100][vendor != "BookShop"]`, ""},
		{"step and where", `for $t in ` + all + `[amount > 100] where $t/vendor != "BookShop" return $t`, "transaction", `[amount > 100][vendor != "BookShop"]`, ""},
		{"rooted child step", rooted + `[customer = "Jane Doe"]`, "account", `[customer = "Jane Doe"]`, ""},
		{"leading conjuncts of a where", `for $t in ` + all + ` where $t/amount > 100 and contains($t/vendor, "Pizza") return $t`, "transaction", `[amount > 100]`, "contains("},
		{"leading predicate, then a position", all + `[amount > 100][1]`, "transaction", `[amount > 100]`, "[1]"},
		{"leading predicate, then a child step's position", rooted + `/transaction[amount > 100][1]`, "transaction", `[amount > 100]`, "per-parent:window[1]"},
		{"inner loop of two", `for $a in ` + rooted + ` for $t in $a/transaction where $t/amount > 1000 return $t`, "transaction", `[amount > 1000]`, ""},
		// not pushed
		{"lifespan start", all + `[@vtFrom > "2003-10-01T00:00:00"]`, "transaction", "", "@vtFrom"},
		{"lifespan end", rooted + `[@vtTo = "now"]`, "account", "", "@vtTo"},
		{"child behind a hole", all + `[status = "charged"]`, "transaction", "", `"charged"`},
		// a child step's positions count per parent, the ones a read can
		// serve as its window
		{"first", rooted + `/transaction[1]`, "transaction", "", "per-parent:window[1]"},
		{"position()", rooted + `/transaction[position() = 2]`, "transaction", "", "per-parent:[(position() = 2)]"},
		{"last()", rooted + `/transaction[last()]`, "transaction", "", "per-parent:window[last()]"},
		{"position, then a comparison", all + `[1][amount > 100]`, "transaction", "", "amount"},
		{"where after a position", `for $t in ` + rooted + `/transaction[1] where $t/amount < 2000 return $t`, "transaction", "", "amount"},
		{"disjunction", all + `[amount > 2000 or vendor = "BookShop"]`, "transaction", "", " or "},
		{"conjunct after one that stays", `for $t in ` + all + ` where contains($t/vendor, "Pizza") and $t/amount > 100 return $t`, "transaction", "", "amount"},
		{"parenthesized path", `(` + all + `)[amount > 100]`, "transaction", "", "amount"},
		{"value comparison", all + `[amount gt 100]`, "transaction", "", " gt "},
		{"wildcard", all + `[* = "BookShop"]`, "transaction", "", "BookShop"},
		{"text()", all + `[vendor/text() = "BookShop"]`, "transaction", "", "text()"},
		{"unknown child", all + `[nosuch = 1]`, "transaction", "", ""},
		{"two variables", `for $a in ` + rooted + ` for $t in $a/transaction where $a/customer = "Jane Doe" return $t`, "transaction", "", "customer"},
		{"positional variable", `for $t at $i in ` + all + ` where $t/amount > 100 return $i`, "transaction", "", "amount"},
		{"let", `let $t := ` + all + ` where $t/amount > 3000 return count($t)`, "transaction", "", "amount"},
	} {
		pushdownShape(t, tc.name, tc.src, tc.tag, tc.pushed, "", tc.residual)
	}
	// a projection that directly follows a step is the step's read under a
	// lifespan bound: the target carries it, and no projection call is left
	for _, tc := range []struct {
		name, src string
		tag       string
		pushed    string // the target's filter
		span      string // its bound; "" when the projection stays a call
		residual  string
	}{
		{"interval", all + `?[2003-11-01T00:00:00,now]`, "transaction", "", `?[2003-11-01T00:00:00,now]`, ""},
		{"symbolic window", all + `?[now-PT1H,now]`, "transaction", "", `?[(now - PT1H),now]`, ""},
		{"inverted window", all + `?[now,now-PT1H]`, "transaction", "", `?[now,(now - PT1H)]`, ""},
		{"instant", rooted + `?[now]`, "account", "", `?[now]`, ""},
		{"version", rooted + `#[1]`, "account", "", `#[1]`, ""},
		{"version range", all + `#[2,last]`, "transaction", "", `#[2,last]`, ""},
		{"child step", `for $a in ` + rooted + ` return sum($a/transaction?[now-PT1H,now]/amount)`, "transaction", "", `?[(now - PT1H),now]`, ""},
		{"after a pushed filter", all + `[amount > 100]?[now-PT1H,now]`, "transaction", `[amount > 100]`, `?[(now - PT1H),now]`, ""},
		{"then a where", `for $t in ` + all + `?[now-PT1H,now] where $t/amount > 100 return $t`, "transaction", `[amount > 100]`, `?[(now - PT1H),now]`, ""},
		{"after an interval projection", all + `?[2003-11-01T00:00:00,now][amount > 100]`, "transaction", "", `?[2003-11-01T00:00:00,now]`, "amount"},
		{"where after every version", `for $t in ` + all + `#[1,last] where $t/amount > 100 return $t`, "transaction", `[amount > 100]`, `#[1,last]`, ""},
		{"bounds of a binding", `for $t in ` + all + ` return count(` + all + `?[vtFrom($t)-PT1M,vtFrom($t)+PT1M])`, "transaction", "", `?[(vtFrom($t) - PT1M),(vtFrom($t) + PT1M)]`, ""},
		// not pushed
		{"after a per-parent position", rooted + `/transaction[1]?[now]`, "transaction", "", "", "xcql:iproj"},
		{"after a filter left to the evaluator", all + `[1]?[now]`, "transaction", "", "", "xcql:iproj"},
		{"after a projection", all + `?[2003-11-01T00:00:00,now]?[now]`, "transaction", "", `?[2003-11-01T00:00:00,now]`, "xcql:iproj"},
		{"after a version range", all + `#[1,last]#[2]`, "transaction", "", `#[1,last]`, "xcql:vproj"},
		// a where takes the versions a range selected, and a read under the
		// range would number the versions the filter let through
		{"where after a version range", `for $t in ` + all + `#[2,last] where $t/amount > 100 return $t`, "transaction", "", `#[2,last]`, "amount"},
		{"where after a version", `for $t in ` + all + `#[2] where $t/amount > 100 return $t`, "transaction", "", `#[2]`, "amount"},
	} {
		pushdownShape(t, tc.name, tc.src, tc.tag, tc.pushed, tc.span, tc.residual)
	}
}

// pushdownShape checks one pushdown case: every plan returns what CaQ
// returns, and under both fragment plans the access path on tag carries
// filter pushed and bound span, and the rewritten plan still holds
// residual.
func pushdownShape(t *testing.T, name, src, tag, pushed, span, residual string) {
	tc := struct{ name, src, tag, pushed, span, residual string }{name, src, tag, pushed, span, residual}
	t.Run(tc.name, func(t *testing.T) {
		rt := newRuntime(t)
		evalAll(t, rt, tc.src) // every plan agrees with CaQ
		for _, mode := range []Mode{QaC, QaCPlus} {
			q := rt.MustCompile(tc.src, mode)
			ex := q.Explain()
			got, found := "", false
			span := ""
			for _, tgt := range ex.Targets {
				if tgt.Tag == tc.tag {
					got, span, found = tgt.Filter, tgt.Span, true
					if (tgt.Filter != "") != strings.Contains(tgt.String(), "pushed=") {
						t.Errorf("%s: target line %q and Filter %q disagree", mode, tgt, tgt.Filter)
					}
					if (tgt.Span != "") != strings.Contains(tgt.String(), "span="+tgt.Span) {
						t.Errorf("%s: target line %q and Span %q disagree", mode, tgt, tgt.Span)
					}
				}
			}
			if !found {
				t.Fatalf("%s: no access path on %s in\n%s", mode, tc.tag, ex)
			}
			if got != tc.pushed {
				t.Errorf("%s: pushed %q, want %q\n%s", mode, got, tc.pushed, ex.Rewritten)
			}
			if span != tc.span {
				t.Errorf("%s: bound %q, want %q\n%s", mode, span, tc.span, ex.Rewritten)
			}
			if tc.span != "" && tc.residual == "" && (strings.Contains(ex.Rewritten, FnIProj) || strings.Contains(ex.Rewritten, FnVProj)) {
				t.Errorf("%s: the pushed projection is still in the plan:\n%s", mode, ex.Rewritten)
			}
			rest := strings.ReplaceAll(ex.Rewritten, got, "")
			if tc.residual != "" && !strings.Contains(rest, tc.residual) {
				t.Errorf("%s: %q is gone from the plan, and was not pushed:\n%s", mode, tc.residual, ex.Rewritten)
			}
			if tc.residual == "" && tc.pushed != "" && (strings.Contains(rest, "amount") || strings.Contains(rest, "@id") || strings.Contains(rest, "customer =")) {
				t.Errorf("%s: the pushed predicate is still in the plan:\n%s", mode, ex.Rewritten)
			}
		}
	})
}

// A filter saves building a version's view, not finding the version: the
// access counters and the budget's steps see every version examined, only
// the constructed nodes follow what was kept.
func TestPushdownAccounting(t *testing.T) {
	rt := newRuntime(t)
	for _, mode := range []Mode{QaC, QaCPlus} {
		every := rt.MustCompile(`stream("credit")//transaction`, mode)
		one := rt.MustCompile(`stream("credit")//transaction[@id = "22222"]`, mode)
		if _, err := every.EvalRaw(evalAt); err != nil {
			t.Fatal(err)
		}
		seq, err := one.EvalRaw(evalAt)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != 1 {
			t.Fatalf("%s: %d items, want 1", mode, len(seq))
		}
		a, b := every.LastStats(), one.LastStats()
		if a.FillersScanned != b.FillersScanned || a.HolesResolved != b.HolesResolved ||
			a.TSIDLookups != b.TSIDLookups || a.TSIDIndexHits != b.TSIDIndexHits {
			t.Errorf("%s: access cost moved with the filter:\nall:      %s\nfiltered: %s", mode, statsLine(a), statsLine(b))
		}
		if b.NodesConstructed != a.NodesConstructed-2 {
			t.Errorf("%s: %d nodes constructed with the filter, %d without: want two fewer", mode, b.NodesConstructed, a.NodesConstructed)
		}
		// three transactions examined, each a step the unfiltered read
		// does not charge; a budget too small for them trips on the filter
		if b.Steps < a.Steps+3 {
			t.Errorf("%s: %d steps with the filter, %d without: every examined version is a step", mode, b.Steps, a.Steps)
		}
	}
}
