package inc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/obs"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
)

// TestFoldChargesWhatItReplaces: on a re-announced credit stream, under
// both index plans, every aggregate that folds from per-transaction terms
// emits every delta the unfolded aggregate emits and charges every
// arrival's counters — the access counters and the budget's steps, items
// and bytes — exactly what the unfolded one charges: across charges,
// window edges, duplicated transactions, an account version that holds its
// transaction inline instead of behind a hole, and a clock regression.
// The shapes cover sum, avg and count, items that are not numbers,
// attribute steps, a keep-all version projection, two sites in one body
// and a site in the return clause.
func TestFoldChargesWhatItReplaces(t *testing.T) {
	for _, c := range []struct{ src, folds string }{
		{fraudQuery, "sum folded over transaction terms"},
		{`for $a in stream("credit")//account where avg($a/transaction?[now-PT1H,now]/amount) > 1000 return $a/@id`, "avg folded"},
		{`for $a in stream("credit")//account where count($a/transaction?[now-PT2H,now-PT10M]) >= 3 return $a/@id`, "count folded"},
		{`for $a in stream("credit")//account return <n>{sum($a/transaction/vendor)}</n>`, "sum folded"},
		{`for $a in stream("credit")//account where avg($a/transaction/@id) = 1 or count($a/transaction#[1,last]/amount) > 4 return $a/@id`, "avg folded over transaction terms; count folded"},
		{`for $a in stream("credit")//account where sum($a/transaction?[now-PT1H,now]/amount) > 3000 and count($a/transaction) > 2 return <hit>{$a/@id}{avg($a/transaction/amount)}</hit>`, "count folded over transaction terms; avg folded"},
	} {
		mode := xcql.QaCPlus
		rt, cs := newCreditStream(t, 3)
		folded, plain := New(rt.MustCompile(c.src, mode)), New(rt.MustCompile(c.src, mode))
		if s := folded.Strategy(); !strings.Contains(s, c.folds) {
			t.Fatalf("%s under %s: strategy %s, want it to say %q", c.src, mode, s, c.folds)
		}
		plain.pieces[0].folded = nil
		emitted := 0
		step := func(f *fragment.Fragment, at time.Time) {
			t.Helper()
			var fs, ps obs.EvalStats
			fd, _, ferr := folded.Apply(f, at, xcql.Limits{}, &fs, nil)
			pd, _, perr := plain.Apply(f, at, xcql.Limits{}, &ps, nil)
			if fmt.Sprint(ferr) != fmt.Sprint(perr) || !reflect.DeepEqual(itemSerials(fd), itemSerials(pd)) {
				t.Fatalf("%s under %s at %s: folded %q (%v), unfolded %q (%v)", c.src, mode, at.Format(time.TimeOnly), itemSerials(fd), ferr, itemSerials(pd), perr)
			}
			emitted += len(fd)
			if fs != ps {
				t.Fatalf("%s under %s at %s: the folded aggregate charged\n%+v\nthe unfolded one\n%+v", c.src, mode, at.Format(time.TimeOnly), fs, ps)
			}
		}
		step(nil, creditBase)
		at := creditBase
		for i := 1; i <= 30; i++ {
			at = creditBase.Add(time.Duration(i) * 7 * time.Minute)
			announce, tx := cs.pub.Charge(i%3, 700*(i%9), at)
			step(cs.add(announce), at)
			step(cs.add(tx), at)
			if i%5 == 0 {
				step(cs.add(tx), at)
			}
			step(nil, at.Add(3*time.Minute))
		}
		// account 1 re-versioned with its transactions inline: no hole
		// of the tag, so the child step reads its children instead
		inline := xmldom.NewElement("account")
		inline.SetAttr("id", "acct1001")
		for _, amount := range []string{"2500", "x", "2600"} {
			tx := xmldom.NewElement("transaction")
			tx.SetAttr("id", "t0")
			tx.AppendChild(xmldom.TextElem("amount", amount))
			inline.AppendChild(tx)
		}
		at = at.Add(time.Minute)
		step(cs.add(fragment.New(2, genstore.CreditAccountTSID, at, inline)), at)
		if folded.terms.kept == nil || emitted == 0 {
			t.Fatalf("%s under %s: %d terms kept, %d items emitted: the case tests nothing", c.src, mode, len(folded.terms.kept), emitted)
		}
		step(nil, creditBase.Add(time.Hour))
		step(nil, at.Add(2*time.Hour))
	}
}

// TestFoldedPlanText pins what a folded unit runs and the signatures its
// slots share results under, as the plan renders them: the aggregate
// becomes an xcql:fold call on the child step's input, carrying the child
// step's lifespan bound, and the site's chain reads the unit slot where the
// child step read the holes. A where pushed below the jump stays a
// predicate on the unit's versions.
func TestFoldedPlanText(t *testing.T) {
	rt, _ := newCreditStream(t, 2)
	for _, c := range []struct{ src, body, folded, chain string }{
		{
			fraudQuery,
			`for $a in $unit where (sum(xcql:fillers($a, "credit", 5, ?[(now - PT1H),now], tops=bare)/amount) >= 5000) return $a/@id`,
			`for $a in $unit where (xcql:fold($a, "credit", 0, ?[(now - PT1H),now]) >= 5000) return $a/@id`,
			`$unit/amount`,
		},
		{
			`for $a in stream("credit")//account where $a/@id = "acct1001" and count($a/transaction) > 2 return $a/@id`,
			`for $a in $unit[(@id = "acct1001")] where (count(xcql:fillers($a, "credit", 5)) > 2) return $a/@id`,
			`for $a in $unit[(@id = "acct1001")] where (xcql:fold($a, "credit", 0) > 2) return $a/@id`,
			`$unit`,
		},
		{
			`for $a in stream("credit")//account return sum($a/transaction/amount)`,
			`for $a in $unit return sum(xcql:fillers($a, "credit", 5, tops=bare)/amount)`,
			`for $a in $unit return xcql:fold($a, "credit", 0)`,
			`$unit/amount`,
		},
	} {
		// the unit slot's name is unspellable; the table spells it $unit
		slot := strings.NewReplacer("$unit", "$"+xcql.UnitVar)
		c.body, c.folded, c.chain = slot.Replace(c.body), slot.Replace(c.folded), slot.Replace(c.chain)
		e := New(rt.MustCompile(c.src, xcql.QaCPlus))
		p := e.pieces[0]
		var folded, chain string
		if p.folded != nil {
			folded, chain = p.folded.String(), e.sites[0].Chain.String()
		}
		if got := p.expr.String(); got != c.body || folded != c.folded || chain != c.chain {
			t.Errorf("%s:\n body %q\nfolded %q\n chain %q\nwant\n body %q\nfolded %q\n chain %q", c.src, got, folded, chain, c.body, c.folded, c.chain)
		}
		for _, sig := range p.sigs {
			if !strings.HasSuffix(sig, "|"+p.expr.String()) {
				t.Errorf("%s: signature %q is not of the body", c.src, sig)
			}
		}
	}
}
