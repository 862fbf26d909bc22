package xcql

import (
	"strings"
	"testing"
)

// What the translator pushes below an access call, read off EXPLAIN's
// target lines: the filter on the target whose tag the predicate is on,
// and the rewritten plan free of the predicate when all of it went down.
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
		{"after an interval projection", all + `?[2003-11-01T00:00:00,now][amount > 100]`, "transaction", "", "amount"},
		{"parenthesized path", `(` + all + `)[amount > 100]`, "transaction", "", "amount"},
		{"value comparison", all + `[amount gt 100]`, "transaction", "", " gt "},
		{"wildcard", all + `[* = "BookShop"]`, "transaction", "", "BookShop"},
		{"text()", all + `[vendor/text() = "BookShop"]`, "transaction", "", "text()"},
		{"unknown child", all + `[nosuch = 1]`, "transaction", "", ""},
		{"two variables", `for $a in ` + rooted + ` for $t in $a/transaction where $a/customer = "Jane Doe" return $t`, "transaction", "", "customer"},
		{"positional variable", `for $t at $i in ` + all + ` where $t/amount > 100 return $i`, "transaction", "", "amount"},
		{"let", `let $t := ` + all + ` where $t/amount > 3000 return count($t)`, "transaction", "", "amount"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rt := newRuntime(t)
			evalAll(t, rt, tc.src) // every plan agrees with CaQ
			for _, mode := range []Mode{QaC, QaCPlus, QaCPlusPlus} {
				q := rt.MustCompile(tc.src, mode)
				ex := q.Explain()
				got, found := "", false
				for _, tgt := range ex.Targets {
					if tgt.Tag == tc.tag {
						got, found = tgt.Filter, true
						if (tgt.Filter != "") != strings.Contains(tgt.String(), "pushed=") {
							t.Errorf("%s: target line %q and Filter %q disagree", mode, tgt, tgt.Filter)
						}
					}
				}
				if !found {
					t.Fatalf("%s: no access path on %s in\n%s", mode, tc.tag, ex)
				}
				if got != tc.pushed {
					t.Errorf("%s: pushed %q, want %q\n%s", mode, got, tc.pushed, ex.Rewritten)
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
}

// A filter saves building a version's view, not finding the version: the
// access counters and the budget's steps see every version examined, only
// the constructed nodes follow what was kept.
func TestPushdownAccounting(t *testing.T) {
	rt := newRuntime(t)
	for _, mode := range []Mode{QaC, QaCPlus, QaCPlusPlus} {
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
			a.TSIDLookups != b.TSIDLookups || a.TSIDIndexHits != b.TSIDIndexHits ||
			a.LabelRangeLookups != b.LabelRangeLookups || a.LabelRangeHits != b.LabelRangeHits {
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

// A cached read filters the cached tops: the entry is keyed by what was
// read, not by who filtered it, so two queries with different filters —
// and one with none — share it.
func TestPushdownSharesCacheEntries(t *testing.T) {
	rt := newRuntime(t)
	rt.SetCache(64)
	srcs := []string{
		`stream("credit")//transaction[amount > 1000]`,
		`stream("credit")//transaction[@id = "22222"]`,
		`stream("credit")//transaction`,
	}
	wantItems := []int{2, 1, 3}
	for _, mode := range []Mode{QaC, QaCPlus} {
		for i, src := range srcs {
			q := rt.MustCompile(src, mode)
			seq, err := q.EvalRaw(evalAt)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq) != wantItems[i] {
				t.Errorf("%s %s: %d items, want %d", mode, src, len(seq), wantItems[i])
			}
			if s := q.LastStats(); i > 0 && (s.CacheMisses != 0 || s.CacheHits == 0) {
				t.Errorf("%s %s: hits=%d misses=%d after a query with another filter filled the cache",
					mode, src, s.CacheHits, s.CacheMisses)
			}
		}
		rt.SetCache(64) // a fresh cache for the next plan's access kinds
	}
}
