package xcql

import (
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
	"xcql/internal/xtime"
)

const creditWire = `<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="customer"/>
    <tag type="temporal" id="4" name="creditLimit"/>
    <tag type="event" id="5" name="transaction">
      <tag type="snapshot" id="6" name="vendor"/>
      <tag type="temporal" id="7" name="status"/>
      <tag type="snapshot" id="8" name="amount"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

var evalAt = time.Date(2003, time.November, 15, 12, 0, 0, 0, time.UTC)

func ts(s string) time.Time {
	t, err := time.Parse(xtime.Layout, s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

// buildCreditStore assembles the running example as a stream of arriving
// fragments: the initial document, then event and update fragments,
// including the §4.2 suspension scenario.
func buildCreditStore(t testing.TB) *fragment.Store {
	t.Helper()
	s, err := tagstruct.ParseString(creditWire)
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(s)
	add := func(f *fragment.Fragment) {
		t.Helper()
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	el := func(src string) *xmldom.Node { return xmldom.MustParseString(src).Root() }

	// root document: two account holes
	add(fragment.New(fragment.RootFillerID, 1, ts("1998-01-01T00:00:00"),
		el(`<creditAccounts><hole id="1" tsid="2"/><hole id="2" tsid="2"/></creditAccounts>`)))
	// account 1234 with creditLimit and two transaction holes
	add(fragment.New(1, 2, ts("1998-10-10T12:20:22"),
		el(`<account id="1234"><customer>John Smith</customer><hole id="10" tsid="4"/><hole id="11" tsid="5"/><hole id="12" tsid="5"/></account>`)))
	// account 5678
	add(fragment.New(2, 2, ts("2000-01-01T00:00:00"),
		el(`<account id="5678"><customer>Jane Doe</customer><hole id="20" tsid="4"/><hole id="21" tsid="5"/></account>`)))
	// creditLimit versions for account 1234: 2000 then 5000
	add(fragment.New(10, 4, ts("1998-10-10T12:20:22"), el(`<creditLimit>2000</creditLimit>`)))
	add(fragment.New(10, 4, ts("2001-04-23T23:11:08"), el(`<creditLimit>5000</creditLimit>`)))
	// creditLimit for account 5678
	add(fragment.New(20, 4, ts("2000-01-01T00:00:00"), el(`<creditLimit>1000</creditLimit>`)))
	// transaction 12345 (Nov 10) with charged status
	add(fragment.New(11, 5, ts("2003-11-10T12:23:34"),
		el(`<transaction id="12345"><vendor>Southlake Pizza</vendor><amount>3800.20</amount><hole id="100" tsid="7"/></transaction>`)))
	add(fragment.New(100, 7, ts("2003-11-10T12:24:35"), el(`<status>charged</status>`)))
	// transaction 12346 (Sep 10), charged then suspended (fillers 3-5)
	add(fragment.New(12, 5, ts("2003-09-10T14:30:12"),
		el(`<transaction id="12346"><vendor>ResAris Contaceu</vendor><amount>1200</amount><hole id="101" tsid="7"/></transaction>`)))
	add(fragment.New(101, 7, ts("2003-09-10T14:30:13"), el(`<status>charged</status>`)))
	add(fragment.New(101, 7, ts("2003-11-01T10:12:56"), el(`<status>suspended</status>`)))
	// transaction 22222 (Nov 12) on account 5678
	add(fragment.New(21, 5, ts("2003-11-12T09:00:00"),
		el(`<transaction id="22222"><vendor>BookShop</vendor><amount>950</amount><hole id="102" tsid="7"/></transaction>`)))
	add(fragment.New(102, 7, ts("2003-11-12T09:00:01"), el(`<status>charged</status>`)))
	return st
}

func newRuntime(t testing.TB) *Runtime {
	rt := NewRuntime()
	rt.RegisterStream("credit", buildCreditStore(t))
	return rt
}

var allModes = []Mode{CaQ, QaC, QaCPlus}

// evalAll runs src under all three modes and checks they agree, returning
// the (shared) result rendered as strings.
func evalAll(t *testing.T, rt *Runtime, src string) []string {
	t.Helper()
	var rendered [][]string
	for _, mode := range allModes {
		q, err := rt.Compile(src, mode)
		if err != nil {
			t.Fatalf("%s compile: %v", mode, err)
		}
		seq, err := q.Eval(evalAt)
		if err != nil {
			t.Fatalf("%s eval: %v", mode, err)
		}
		rendered = append(rendered, renderSeq(seq))
	}
	for i, mode := range allModes[1:] {
		if strings.Join(rendered[i+1], "\n") != strings.Join(rendered[0], "\n") {
			t.Fatalf("mode %s disagrees with %s on %q:\n%s: %v\n%s: %v",
				mode, allModes[0], src, allModes[0], rendered[0], mode, rendered[i+1])
		}
	}
	return rendered[0]
}

func renderSeq(seq xq.Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			out[i] = n.String()
		} else {
			out[i] = xq.StringValue(it)
		}
	}
	return out
}

func TestModeString(t *testing.T) {
	for _, m := range allModes {
		back, err := ParseMode(m.String())
		if err != nil || back != m {
			t.Errorf("mode round trip %v: %v %v", m, back, err)
		}
	}
	if _, err := ParseMode("nope"); err == nil {
		t.Error("bad mode accepted")
	}
}

func TestPlanShapes(t *testing.T) {
	rt := newRuntime(t)
	src := `for $t in stream("credit")//transaction where $t/amount > 1000 return $t/amount`

	caq := rt.MustCompile(src, CaQ).Plan.String()
	if !strings.Contains(caq, FnView) || strings.Contains(caq, FnFillers) {
		t.Fatalf("CaQ plan:\n%s", caq)
	}
	qac := rt.MustCompile(src, QaC).Plan.String()
	if !strings.Contains(qac, FnRoot) || !strings.Contains(qac, FnFillers) {
		t.Fatalf("QaC plan:\n%s", qac)
	}
	if strings.Contains(qac, FnByTSID) {
		t.Fatalf("QaC plan must not use the tsid index:\n%s", qac)
	}
	plus := rt.MustCompile(src, QaCPlus).Plan.String()
	if !strings.Contains(plus, FnByTSID) {
		t.Fatalf("QaC+ plan must use the tsid index:\n%s", plus)
	}
	// QaC+ descendant over the whole stream must not chain fillers calls
	if strings.Contains(plus, FnFillers+"("+FnFillers) {
		t.Fatalf("QaC+ should not reconcile intermediate holes:\n%s", plus)
	}
}

func TestCompileUnknownStream(t *testing.T) {
	rt := newRuntime(t)
	if _, err := rt.Compile(`stream("nope")//x`, QaC); err == nil {
		t.Fatal("unknown stream should fail at compile time")
	}
}

func TestChildStepAcrossHoles(t *testing.T) {
	rt := newRuntime(t)
	got := evalAll(t, rt, `stream("credit")/creditAccounts/account/customer`)
	if len(got) != 2 {
		t.Fatalf("customers = %v", got)
	}
}

func TestDescendantAcrossHoles(t *testing.T) {
	rt := newRuntime(t)
	got := evalAll(t, rt, `count(stream("credit")//transaction)`)
	if got[0] != "3" {
		t.Fatalf("transactions = %v", got)
	}
	got = evalAll(t, rt, `count(stream("credit")//status)`)
	if got[0] != "4" {
		t.Fatalf("status versions = %v", got)
	}
	// snapshot descendants still work (vendor is embedded in transaction)
	got = evalAll(t, rt, `count(stream("credit")//vendor)`)
	if got[0] != "3" {
		t.Fatalf("vendors = %v", got)
	}
}

func TestExistentialStatusSemantics(t *testing.T) {
	// §6: with plain status = "charged", the suspended transaction 12346
	// still matches (existential over versions)…
	rt := newRuntime(t)
	got := evalAll(t, rt, `for $t in stream("credit")//transaction
		where $t/amount > 1000 and $t/status = "charged"
		return $t/@id`)
	if strings.Join(got, ",") != "12345,12346" {
		t.Fatalf("existential match = %v", got)
	}
	// …while status?[now] sees only the current version and excludes it
	got = evalAll(t, rt, `for $t in stream("credit")//transaction
		where $t/amount > 1000 and $t/status?[now] = "charged"
		return $t/@id`)
	if strings.Join(got, ",") != "12345" {
		t.Fatalf("?[now] match = %v", got)
	}
	// equivalent #[last] form mentioned in §6.1
	got = evalAll(t, rt, `for $t in stream("credit")//transaction
		where $t/amount > 1000 and $t/status#[last] = "charged"
		return $t/@id`)
	if strings.Join(got, ",") != "12345" {
		t.Fatalf("#[last] match = %v", got)
	}
}

func TestPaperQuery1MaxedOutAccounts(t *testing.T) {
	// Query 1 (§3.1): accounts maxed out in November 2003. Account 5678
	// has a 1000 limit and a 950 charge — not maxed. Account 1234 has a
	// 5000 limit and 3800.20 November charge — not maxed. Lower the bar by
	// checking against the definition directly at several thresholds.
	rt := newRuntime(t)
	src := `for $a in stream("credit")//account
	where sum($a/transaction?[2003-11-01,2003-12-01]
	          [status = "charged"]/amount) >= $a/creditLimit?[now]
	return <account>{ attribute id {$a/@id}, $a/customer }</account>`
	got := evalAll(t, rt, src)
	if len(got) != 0 {
		t.Fatalf("no account should be maxed out, got %v", got)
	}
	// with a lower threshold the big spender appears
	src2 := `for $a in stream("credit")//account
	where sum($a/transaction?[2003-11-01,2003-12-01]
	          [status = "charged"]/amount) >= 3000
	return $a/@id`
	got = evalAll(t, rt, src2)
	if strings.Join(got, ",") != "1234" {
		t.Fatalf("november spenders = %v", got)
	}
}

func TestPaperQuery2Fraud(t *testing.T) {
	rt := newRuntime(t)
	src := `for $a in stream("credit")//account
	where sum($a/transaction?[now-PT1H,now][status = "charged"]/amount) >=
	      max(($a/creditLimit?[now] * 0.9, 5000))
	return <alert><account id={$a/@id}>{$a/customer}</account></alert>`
	// nothing within the hour at evalAt
	got := evalAll(t, rt, src)
	if len(got) != 0 {
		t.Fatalf("unexpected alert: %v", got)
	}
	// evaluated just after the 3800.20 charge with a lowered threshold:
	// max(0.5 * 5000, 3000) = 3000 <= 3800.20 triggers the alert
	src3k := strings.Replace(strings.Replace(src, "5000", "3000", 1), "0.9", "0.5", 1)
	for _, mode := range allModes {
		q := rt.MustCompile(src3k, mode)
		seq, err := q.Eval(ts("2003-11-10T12:30:00"))
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(seq) != 1 {
			t.Fatalf("%s: alerts = %d", mode, len(seq))
		}
		alert := seq[0].(*xmldom.Node)
		if alert.Descendants("account")[0].AttrOr("id", "") != "1234" {
			t.Fatalf("%s: alert = %s", mode, alert)
		}
	}
}

func TestVersionWindows(t *testing.T) {
	rt := newRuntime(t)
	got := evalAll(t, rt, `stream("credit")//account[@id = "1234"]/creditLimit#[1]`)
	if len(got) != 1 || !strings.Contains(got[0], "2000") {
		t.Fatalf("#[1] = %v", got)
	}
	got = evalAll(t, rt, `stream("credit")//account[@id = "1234"]/creditLimit#[last]`)
	if len(got) != 1 || !strings.Contains(got[0], "5000") {
		t.Fatalf("#[last] = %v", got)
	}
	got = evalAll(t, rt, `count(stream("credit")//account[@id = "1234"]/creditLimit#[1,10])`)
	if got[0] != "2" {
		t.Fatalf("#[1,10] = %v", got)
	}
}

func TestIntervalWindowAcrossModes(t *testing.T) {
	rt := newRuntime(t)
	// only the November transactions fall in the window
	got := evalAll(t, rt, `count(stream("credit")//transaction?[2003-11-01,2003-12-01])`)
	if got[0] != "2" {
		t.Fatalf("window count = %v", got)
	}
	// lifespans are clipped to the window
	got = evalAll(t, rt, `vtTo(stream("credit")//account[@id = "5678"]?[2003-01-01,2003-06-01])`)
	if got[0] != "2003-06-01T00:00:00" {
		t.Fatalf("clipped vtTo = %v", got)
	}
}

func TestVtFromOnFragmentStream(t *testing.T) {
	rt := newRuntime(t)
	got := evalAll(t, rt, `vtFrom(stream("credit")//transaction[@id = "12345"])`)
	if got[0] != "2003-11-10T12:23:34" {
		t.Fatalf("vtFrom = %v", got)
	}
}

func TestResultMaterialization(t *testing.T) {
	// returning an account in QaC copies its payload, which contains
	// holes; Eval must resolve them (Figure 2's final Materialize)
	rt := newRuntime(t)
	q := rt.MustCompile(`stream("credit")//account[@id = "1234"]`, QaC)
	seq, err := q.Eval(evalAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 {
		t.Fatalf("accounts = %d", len(seq))
	}
	acct := seq[0].(*xmldom.Node)
	if len(acct.Descendants("hole")) != 0 {
		t.Fatalf("holes left in materialized result: %s", acct)
	}
	if len(acct.ChildElements("creditLimit")) != 2 {
		t.Fatalf("creditLimit versions = %s", acct)
	}
	// EvalRaw keeps the holes
	raw, err := q.EvalRaw(evalAt)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw[0].(*xmldom.Node).Descendants("hole")) == 0 {
		t.Fatal("EvalRaw should keep holes")
	}
}

func TestFutureFragmentsInvisible(t *testing.T) {
	rt := newRuntime(t)
	// before the November transactions happened
	at := ts("2003-10-01T00:00:00")
	for _, mode := range allModes {
		q := rt.MustCompile(`count(stream("credit")//transaction)`, mode)
		seq, err := q.Eval(at)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if xq.StringValue(seq[0]) != "1" {
			t.Fatalf("%s: at %v transactions = %v", mode, at, seq[0])
		}
	}
}

func TestWildcardChildAcrossHoles(t *testing.T) {
	rt := newRuntime(t)
	// account/* = customer (snapshot) + creditLimit versions + transactions
	got := evalAll(t, rt, `count(stream("credit")//account[@id = "1234"]/*)`)
	// customer + 2 creditLimit versions + 2 transactions = 5
	if got[0] != "5" {
		t.Fatalf("wildcard = %v", got)
	}
}

func TestUserFunctionsInQueries(t *testing.T) {
	rt := newRuntime(t)
	rt.RegisterFunc("double", func(_ *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
		return xq.Singleton(xq.NumberValue(args[0][0]) * 2), nil
	})
	got := evalAll(t, rt, `double(sum(stream("credit")//transaction/amount))`)
	want := xq.FormatNumber(2 * (3800.20 + 1200 + 950))
	if got[0] != want {
		t.Fatalf("double = %v want %s", got, want)
	}
}

func TestRegisteredDoc(t *testing.T) {
	rt := newRuntime(t)
	rt.RegisterDoc("lookup.xml", xmldom.MustParseString(`<rates><rate vendor="BookShop">0.01</rate></rates>`))
	got := evalAll(t, rt, `doc("lookup.xml")/rates/rate/@vendor`)
	if got[0] != "BookShop" {
		t.Fatalf("doc = %v", got)
	}
}

func TestLateArrivalChangesResult(t *testing.T) {
	// continuous behaviour: a new fragment arriving changes the next
	// evaluation without recompiling
	rt := newRuntime(t)
	st := rt.Store("credit")
	q := rt.MustCompile(`count(stream("credit")//transaction)`, QaCPlus)
	before, err := q.Eval(evalAt)
	if err != nil {
		t.Fatal(err)
	}
	if xq.StringValue(before[0]) != "3" {
		t.Fatalf("before = %v", before[0])
	}
	// a new charge arrives on account 5678 — but its hole is not in the
	// account yet; in the Hole-Filler model an insertion updates the
	// parent fragment with a new hole (§1)
	el := xmldom.MustParseString(`<account id="5678"><customer>Jane Doe</customer><hole id="20" tsid="4"/><hole id="21" tsid="5"/><hole id="22" tsid="5"/></account>`).Root()
	if err := st.Add(fragment.New(2, 2, ts("2003-11-14T00:00:00"), el)); err != nil {
		t.Fatal(err)
	}
	tx := xmldom.MustParseString(`<transaction id="33333"><vendor>CafeX</vendor><amount>12</amount></transaction>`).Root()
	if err := st.Add(fragment.New(22, 5, ts("2003-11-14T00:00:01"), tx)); err != nil {
		t.Fatal(err)
	}
	after, err := q.Eval(evalAt)
	if err != nil {
		t.Fatal(err)
	}
	if xq.StringValue(after[0]) != "4" {
		t.Fatalf("after = %v", after[0])
	}
}

// A literal evaluates to one sequence kept on its node, and every
// evaluation of a compiled query shares it — the stream names and tsids of
// every fillers call among them. Two evaluations of one query at once
// return what one alone does; under the race detector, they write nothing
// they share.
func TestLiteralsSharedAcrossEvaluations(t *testing.T) {
	rt := newRuntime(t)
	const src = `for $a in stream("credit")//account
		return <acct id="{ $a/@id }" kind="{ "account" }">{ "limit", $a/creditLimit[1], ("x", 1, 2.5, true()),
			concat("a", "-", "b"), $a/transaction[amount > 1000]/@id, count(($a/transaction, 1, "two")) }</acct>`
	for _, mode := range allModes {
		q, err := rt.Compile(src, mode)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		eval := func() (string, error) {
			seq, err := q.Eval(evalAt)
			return strings.Join(renderSeq(seq), "\n"), err
		}
		want, err := eval()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					if got, err := eval(); err != nil || got != want {
						t.Errorf("%s: concurrent evaluation returned (%v)\n%s\nwant\n%s", mode, err, got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
