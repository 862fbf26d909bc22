package inc

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// The two standing queries of the credit-card stream (bench/e2e runs the
// same pair as standing-window).
const (
	fraudQuery  = `for $a in stream("credit")//account where sum($a/transaction?[now-PT1H,now]/amount) >= 5000 return $a/@id`
	filterQuery = `for $t in stream("credit")//transaction where $t/amount > 500 return $t/amount`
)

var creditBase = genstore.CreditBase

// creditStream is a store fed by a credit publisher: every charge arrives
// as the account's re-announcement with the new hole, then the
// transaction filler.
type creditStream struct {
	t     *testing.T
	store *fragment.Store
	pub   *genstore.CreditPublisher
}

func newCreditStream(t *testing.T, accounts int) (*xcql.Runtime, *creditStream) {
	t.Helper()
	s, err := tagstruct.ParseString(genstore.CreditStructure)
	if err != nil {
		t.Fatal(err)
	}
	pub, initial := genstore.NewCreditPublisher(accounts)
	cs := &creditStream{t: t, store: fragment.NewStore(s), pub: pub}
	for _, f := range initial {
		cs.add(f)
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("credit", cs.store)
	return rt, cs
}

func (cs *creditStream) add(f *fragment.Fragment) *fragment.Fragment {
	cs.t.Helper()
	if err := cs.store.Add(f); err != nil {
		cs.t.Fatal(err)
	}
	return f
}

// charge stores the two fragments of one charge and returns them in
// publish order.
func (cs *creditStream) charge(a, amount int, at time.Time) (announce, tx *fragment.Fragment) {
	announce, tx = cs.pub.Charge(a, amount, at)
	return cs.add(announce), cs.add(tx)
}

// TestBuiltinsAreStructural: a call to a builtin that reads nothing but
// its arguments leaves a plan's dependencies what its access paths make
// them — the fraud plan depends on account, creditLimit and transaction
// arrivals and on nothing else, sum() or not — while a call that can read
// past its arguments makes the plan broad, and says which.
func TestBuiltinsAreStructural(t *testing.T) {
	rt, _ := newCreditStream(t, 1)
	rt.RegisterFunc("audit", func(*xq.Context, []xq.Sequence) (xq.Sequence, error) { return nil, nil })
	deps := func(src string) deps {
		e := New(rt.MustCompile(src, xcql.QaCPlus))
		return e.dependencies(e.stripped)
	}
	d := deps(fraudQuery)
	if d.broad != "" || !reflect.DeepEqual(d.relevant, map[int]bool{2: true, 4: true, 5: true}) || !d.rooted {
		t.Errorf("fraud plan: dependencies %+v, want tags {2,4,5}, rooted, not broad", d)
	}
	for _, fn := range []string{"count", "exists", "not", "string-length", "max", "currentDateTime"} {
		if d := deps(fmt.Sprintf(`for $a in stream("credit")//account where %s($a/transaction) return $a`, fn)); d.broad != "" {
			t.Errorf("%s(): broad (%s), want structural", fn, d.broad)
		}
	}
	for _, call := range []string{`doc("x")`, `root($a)`, `position()`, `last()`, `audit($a)`} {
		d := deps(fmt.Sprintf(`for $a in stream("credit")//account where %s return $a`, call))
		if name := call[:strings.IndexByte(call, '(')]; !strings.Contains(d.broad, "calls "+name) {
			t.Errorf("%s: broad reason %q, want it to name the call", call, d.broad)
		}
	}
	// a registered function takes a builtin's name: the call is the user's
	rt.RegisterFunc("sum", func(*xq.Context, []xq.Sequence) (xq.Sequence, error) { return nil, nil })
	if d := deps(fraudQuery); !strings.Contains(d.broad, "calls sum") {
		t.Errorf("shadowed sum(): broad reason %q, want it to name the call", d.broad)
	}
}

// TestStrategyNamesTheDecision: the strategy line says which arrivals each
// piece is recomputed by.
func TestStrategyNamesTheDecision(t *testing.T) {
	rt, _ := newCreditStream(t, 1)
	rt.RegisterFunc("audit", func(*xq.Context, []xq.Sequence) (xq.Sequence, error) { return nil, nil })
	for _, c := range []struct {
		src  string
		mode xcql.Mode
		want string
	}{
		{fraudQuery, xcql.QaCPlus, "1 piece (per-binding on account; sum folded over transaction terms)"},
		{filterQuery, xcql.QaCPlus, "1 piece (per-binding on transaction)"},
		{`count(stream("credit")//transaction)`, xcql.QaCPlus, "1 piece (per-binding on transaction), count mode"},
		{fraudQuery, xcql.QaC, "1 piece (generic on creditAccounts,account,creditLimit,transaction)"},
		{fraudQuery, xcql.CaQ, "1 piece (generic, broad: materializes the whole view)"},
		{`for $a in stream("credit")//account where audit($a) return $a`, xcql.QaCPlus,
			"1 piece (generic, broad: calls audit, which is not a pure builtin)"},
		{`for $a in stream("credit")//account order by $a/@id return $a`, xcql.QaCPlus, "1 piece (generic on account,creditLimit,transaction)"},
	} {
		if got := New(rt.MustCompile(c.src, c.mode)).Strategy(); got != c.want {
			t.Errorf("%s under %s:\n got %s\nwant %s", c.src, c.mode, got, c.want)
		}
	}
}

// TestPerBindingSchedule pins the scheduling on a re-announced credit
// stream: both standing queries decompose per binding; of an event's two
// fragments the second — the transaction — evaluates exactly one unit of
// the fraud query (its account) and one of the filter query (itself); a
// clock advance short of any charge's validTime + PT1H evaluates nothing;
// the advance that takes the first charge out of the window evaluates the
// one account it belonged to. Every delta equals full re-evaluation's.
func TestPerBindingSchedule(t *testing.T) {
	rt, cs := newCreditStream(t, 4)
	fraud := New(rt.MustCompile(fraudQuery, xcql.QaCPlus))
	filter := New(rt.MustCompile(filterQuery, xcql.QaCPlus))
	for _, e := range []*Engine{fraud, filter} {
		if len(e.pieces) != 1 || !e.pieces[0].indexed() {
			t.Fatalf("not per-binding: %s", e.Strategy())
		}
	}
	full := rt.MustCompile(fraudQuery, xcql.QaCPlus)
	seen := make(map[string]bool)
	// apply advances both engines and returns how many units each
	// evaluated; the fraud delta is checked against the full plan's
	apply := func(f *fragment.Fragment, at time.Time) (fraudUnits, filterUnits int64) {
		t.Helper()
		var fs, ls obs.EvalStats
		delta, _, err := fraud.Apply(f, at, xcql.Limits{}, &fs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := filter.Apply(f, at, xcql.Limits{}, &ls, nil); err != nil {
			t.Fatal(err)
		}
		ref, err := full.Eval(at)
		if err != nil {
			t.Fatal(err)
		}
		var want []string
		for _, it := range ref {
			if s := ItemSerial(it); !seen[s] {
				seen[s] = true
				want = append(want, s)
			}
		}
		var got []string
		for _, it := range delta {
			got = append(got, ItemSerial(it))
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("at %s: delta %q, full re-evaluation emits %q", at.Format("15:04:05"), got, want)
		}
		return fs.HandlerInvocations, ls.HandlerInvocations
	}
	apply(nil, creditBase)
	// three charges of 2000 on account 2, a minute apart; others in between
	at := creditBase
	for i, a := range []int{2, 1, 2, 3, 2} {
		at = creditBase.Add(time.Duration(i+1) * time.Minute)
		announce, tx := cs.charge(a, 2000, at)
		if n, m := apply(announce, at); n != 1 || m != 0 {
			t.Fatalf("charge %d, re-announcement: %d fraud and %d filter units evaluated, want 1 and 0", i, n, m)
		}
		if n, m := apply(tx, at); n != 1 || m != 1 {
			t.Fatalf("charge %d, transaction: %d fraud and %d filter units evaluated, want 1 and 1", i, n, m)
		}
	}
	if !seen[`acct1002`] {
		t.Fatalf("account 2 was charged 6000 within the hour and never reported: %v", seen)
	}
	// the first charge leaves the window one hour after its validTime
	expiry := creditBase.Add(time.Minute + time.Hour)
	for _, tick := range []time.Time{at.Add(time.Minute), expiry.Add(-time.Second), expiry} {
		if n, m := apply(nil, tick); n != 0 || m != 0 {
			t.Fatalf("clock advance to %s: %d fraud and %d filter units evaluated, want none before a window edge crosses",
				tick.Format("15:04:05"), n, m)
		}
	}
	if n, _ := apply(nil, expiry.Add(time.Nanosecond)); n != 1 {
		t.Fatalf("the first charge left the window: %d fraud units evaluated, want account 2's", n)
	}
	if got := len(fraud.ItemsSnapshot()); got != 0 {
		t.Fatalf("account 2 holds 4000 in the window now; the standing result still has %d items", got)
	}
}

// fraudReplay drives one fraud engine over a credit stream and holds every
// step to a from-scratch evaluation of the plan: the delta to the items
// absent from the previous full result, the standing result to the full
// result itself.
type fraudReplay struct {
	t    *testing.T
	e    *Engine
	full *xcql.Query
	prev map[string]bool
}

func newFraudReplay(t *testing.T, rt *xcql.Runtime) *fraudReplay {
	return &fraudReplay{t: t, e: New(rt.MustCompile(fraudQuery, xcql.QaCPlus)), full: rt.MustCompile(fraudQuery, xcql.QaCPlus)}
}

// step applies one arrival (nil: a clock advance) at the instant at, checks
// it, and returns how many versions it re-ran.
func (fr *fraudReplay) step(f *fragment.Fragment, at time.Time) int {
	fr.t.Helper()
	delta, _, err := fr.e.Apply(f, at, xcql.Limits{}, nil, nil)
	if err != nil {
		fr.t.Fatalf("at %s: %v", at.Format(time.TimeOnly), err)
	}
	ref, err := fr.full.Eval(at)
	if err != nil {
		fr.t.Fatal(err)
	}
	next := make(map[string]bool)
	want := []string{}
	for _, s := range itemSerials(ref) {
		if !fr.prev[s] && !next[s] {
			want = append(want, s)
		}
		next[s] = true
	}
	fr.prev = next
	if got := itemSerials(delta); !reflect.DeepEqual(got, want) {
		fr.t.Fatalf("at %s: delta %q, full re-evaluation emits %q", at.Format(time.TimeOnly), got, want)
	}
	if got, want := snapshotSerials(fr.e), strings.Join(itemSerials(ref), "\n"); got != want {
		fr.t.Fatalf("at %s: standing result\n%s\nfull re-evaluation\n%s", at.Format(time.TimeOnly), got, want)
	}
	return fr.e.reran
}

// terms checks how many terms the last step evaluated and, when it
// evaluated any, how many items the term of transaction fid now holds.
func (fr *fraudReplay) terms(what string, runs, fid, items int) {
	fr.t.Helper()
	if n := fr.e.terms.runs; n != runs {
		fr.t.Fatalf("%s: %d terms evaluated, want %d", what, n, runs)
	}
	if t := fr.e.terms.kept[termKey{0, fid}]; runs > 0 && (t == nil || t.Len() != items) {
		fr.t.Fatalf("%s: transaction %d's term %+v, want one of %d items", what, fid, t, items)
	}
}

// TestPerVersionSchedule pins which versions an arrival re-runs on a
// re-announced credit stream, one account charged k times a minute apart,
// so that version i of the account holds the holes of charges 1..i: a
// re-announcement re-runs the new version and the one whose lifespan it
// closes, its transaction the one version announcing it; the clock re-runs
// nothing short of a window edge, and just past one only the versions
// whose horizon it passed — the versions holding the charge that left the
// window, not the older ones. Within the versions that re-run, the sum
// folds the transactions' terms, and only a changed transaction's term is
// evaluated: a charge evaluates one term with an item in it (and, on the
// re-announcement, the empty one of the transaction not yet stored), the
// edge only the term of the charge that left, a duplicated or newly
// visible transaction only its own. Duplicate versions, a version stored
// mid-history, future-dated versions becoming visible, a clock regression
// and a budget trip half-way through a unit's versions all leave every
// delta and standing result equal to a from-scratch evaluation, and the
// trip is the one the unfolded sum makes, at every step budget.
func TestPerVersionSchedule(t *testing.T) {
	rt, cs := newCreditStream(t, 2)
	fr := newFraudReplay(t, rt)
	rec := obs.NewFlightRecorder(obs.FlightRecorderOptions{SampleEvery: 1})
	fr.e.SetFlightRecorder(rec)
	fr.step(nil, creditBase)
	const k = 6
	minute := func(m int) time.Time { return creditBase.Add(time.Duration(m) * time.Minute) }
	at := creditBase
	var txs []int // charge i's transaction is txs[i-1]
	for i := 1; i <= k; i++ {
		// each fragment is stored as it arrives
		at = minute(i)
		announce, tx := cs.pub.Charge(0, 2000, at)
		announce.Trace = rec.NewTrace()
		if n := fr.step(cs.add(announce), at); n != 2 {
			t.Fatalf("charge %d, the re-announcement: %d versions re-run, want the new one and the one whose lifespan it closes", i, n)
		}
		txs = append(txs, tx.FillerID)
		fr.terms(fmt.Sprintf("charge %d, the re-announcement", i), 1, tx.FillerID, 0)
		rec.Flush()
		spans := rec.TraceByID(announce.Trace.TraceID).Spans
		if len(spans) != 1 || spans[0].Detail != "dirty=1 units=2 versions=2 terms=1" {
			t.Fatalf("charge %d, the re-announcement: spans %+v, want one inc.recompute span detailing dirty=1 units=2 versions=2 terms=1", i, spans)
		}
		if n := fr.step(cs.add(tx), at); n != 1 {
			t.Fatalf("charge %d, the transaction: %d versions re-run, want the one announcing it", i, n)
		}
		fr.terms(fmt.Sprintf("charge %d, the transaction", i), 1, tx.FillerID, 1)
	}
	for _, u := range fr.e.order {
		if want := len(cs.store.Versions(u.key.fid)); u.key.fid == 1 && (u.versions == nil || len(u.versions.spans) != want) {
			t.Fatalf("account 0: unit memo %+v, want one span for each of its %d versions", u.versions, want)
		}
	}

	// charge i leaves the window an hour after its minute: the first takes
	// the k versions holding it, the second the k-1 holding it — version 1,
	// which holds the first charge alone, has no horizon left
	for i, want := range []int{k, k - 1} {
		edge := minute(i + 1).Add(time.Hour)
		for _, tick := range []time.Time{edge.Add(-time.Second), edge} {
			if n := fr.step(nil, tick); n != 0 {
				t.Fatalf("clock at %s, short of charge %d's window edge: %d versions re-run, want none", tick.Format(time.TimeOnly), i+1, n)
			}
			fr.terms(fmt.Sprintf("clock short of charge %d's window edge", i+1), 0, -1, 0)
		}
		at = edge.Add(time.Nanosecond)
		if n := fr.step(nil, at); n != want {
			t.Fatalf("charge %d left the window: %d versions re-run, want the %d holding it", i+1, n, want)
		}
		fr.terms(fmt.Sprintf("charge %d left the window", i+1), 1, txs[i], 0)
	}

	// duplicate delivery: the latest version stored again, then a copy
	// sharing its payload; each re-runs itself and the version before it,
	// and no term
	latest := cs.store.Versions(1)[k]
	for _, dup := range []*fragment.Fragment{latest, fragment.New(latest.FillerID, latest.TSID, latest.ValidTime, latest.Payload)} {
		if n := fr.step(cs.add(dup), at); n != 2 {
			t.Fatalf("a duplicate of the latest version: %d versions re-run, want 2", n)
		}
		fr.terms("a duplicate of the latest version", 0, -1, 0)
	}
	// the last transaction delivered again: the versions holding it re-run,
	// and evaluate its term alone
	fr.step(cs.add(cs.store.Versions(txs[k-1])[0]), at)
	fr.terms("a duplicate of the last transaction", 1, txs[k-1], 1)
	// a version dated between charges 2 and 3, arriving now
	if n := fr.step(cs.add(cs.pub.Account(0, minute(2).Add(30*time.Second))), at); n != 2 {
		t.Fatalf("a version stored mid-history: %d versions re-run, want it and the one whose lifespan it closes", n)
	}
	// a version dated ahead of the clock re-runs nothing until it is visible
	future := cs.add(cs.pub.Account(0, at.Add(30*time.Second)))
	if n := fr.step(future, at); n != 0 {
		t.Fatalf("a future-dated version: %d versions re-run on arrival, want none", n)
	}
	if n := fr.step(nil, future.ValidTime); n != 2 {
		t.Fatalf("a future-dated version becoming visible: %d versions re-run, want it and the one whose lifespan it closes", n)
	}
	fr.terms("a future-dated version becoming visible", 0, -1, 0)
	// a charge whose transaction is dated ahead of the clock: its term is
	// evaluated, with the item in it, once the transaction is visible
	at = future.ValidTime
	announce, tx := cs.pub.Charge(0, 2000, at)
	late := fragment.New(tx.FillerID, tx.TSID, at.Add(20*time.Second), tx.Payload)
	fr.step(cs.add(announce), at)
	fr.terms("a re-announcement ahead of its transaction", 1, late.FillerID, 0)
	if n := fr.step(cs.add(late), at); n != 0 {
		t.Fatalf("a future-dated transaction: %d versions re-run on arrival, want none", n)
	}
	fr.terms("a future-dated transaction", 0, -1, 0)
	if n := fr.step(nil, late.ValidTime); n != 1 {
		t.Fatalf("a future-dated transaction becoming visible: %d versions re-run, want the one announcing it", n)
	}
	fr.terms("a future-dated transaction becoming visible", 1, late.FillerID, 1)
	// a clock regression re-runs everything visible; the clock then runs on
	back := minute(61).Add(30 * time.Second)
	visible := 0
	for _, fid := range []int{1, 2} {
		for _, v := range cs.store.Versions(fid) {
			if !v.ValidTime.After(back) {
				visible++
			}
		}
	}
	if n := fr.step(nil, back); n != visible {
		t.Fatalf("a clock regression: %d versions re-run, want all %d visible", n, visible)
	}
	fr.step(nil, minute(65))

	// a budget trip after the first of a unit's two re-run versions, then
	// the next arrival: the smallest step budget that lets one version
	// through is found on fresh engines seeded before the re-announcement.
	// The re-announcement folds the terms the seeding kept. At every step
	// and item budget up to one that lets it through, the folded sum trips
	// where the unfolded one does, after the same versions: a step trip
	// with the same error, an item trip — which a kept term's charge can
	// make — on the same limit.
	at = minute(70)
	announce, tx = cs.charge(0, 2000, at)
	resumed := false
	for _, limit := range []string{budget.LimitSteps, budget.LimitItems} {
		for n := int64(1); ; n++ {
			lim := xcql.Limits{MaxSteps: n}
			if limit == budget.LimitItems {
				lim = xcql.Limits{MaxItems: n}
			}
			tripped, plain := newFraudReplay(t, rt), newFraudReplay(t, rt)
			plain.e.pieces[0].folded = nil
			tripped.step(nil, at.Add(-time.Second))
			plain.step(nil, at.Add(-time.Second))
			_, _, err := tripped.e.Apply(announce, at, lim, nil, nil)
			_, _, want := plain.e.Apply(announce, at, lim, nil, nil)
			var re, wantRE *budget.ResourceError
			same := errors.As(err, &re) == errors.As(want, &wantRE) && (re == nil || re.Limit == wantRE.Limit)
			if limit == budget.LimitSteps {
				same = fmt.Sprint(err) == fmt.Sprint(want)
			}
			if !same || tripped.e.reran != plain.e.reran {
				t.Fatalf("%s budget %d: the folded sum fails with %v after %d versions, the unfolded one with %v after %d",
					limit, n, err, tripped.e.reran, want, plain.e.reran)
			}
			if err == nil {
				break
			}
			if tripped.e.reran == 0 || resumed {
				continue
			}
			resumed = true
			if n := tripped.step(tx, at); n == 0 {
				t.Fatalf("the arrival after a budget trip re-ran no version")
			}
		}
	}
	if !resumed {
		t.Fatalf("no budget trips between the unit's two versions")
	}
}

// TestVolatileUnitRunsOncePerInstant: a unit that reads the clock as a
// value has its evaluation instant for a horizon. Every clock advance
// re-runs it; a second arrival at the same instant, which is none of its
// own, does not.
func TestVolatileUnitRunsOncePerInstant(t *testing.T) {
	rt, cs := newCreditStream(t, 2)
	e := New(rt.MustCompile(`for $t in stream("credit")//transaction return <seen at="{currentDateTime()}">{$t/amount/text()}</seen>`, xcql.QaCPlus))
	if len(e.pieces) != 1 || !e.pieces[0].indexed() {
		t.Fatalf("not per-binding: %s", e.Strategy())
	}
	units := func(f *fragment.Fragment, at time.Time) int64 {
		t.Helper()
		var st obs.EvalStats
		if _, _, err := e.Apply(f, at, xcql.Limits{}, &st, nil); err != nil {
			t.Fatal(err)
		}
		return st.HandlerInvocations
	}
	units(nil, creditBase)
	at := creditBase.Add(time.Minute)
	announce, tx := cs.charge(0, 100, at)
	if n := units(announce, at); n != 0 {
		t.Fatalf("re-announcement, no transaction stored yet: %d units evaluated, want 0", n)
	}
	if n := units(tx, at); n != 1 {
		t.Fatalf("first transaction: %d units evaluated, want 1", n)
	}
	announce, tx = cs.charge(1, 100, at)
	if n := units(announce, at); n != 0 {
		t.Fatalf("another account's re-announcement at the same instant: %d units evaluated, want 0", n)
	}
	if n := units(tx, at); n != 1 {
		t.Fatalf("second transaction at the same instant: %d units evaluated, want its own only", n)
	}
	if n := units(nil, at.Add(time.Second)); n != 2 {
		t.Fatalf("clock advance: %d units evaluated, want both volatile ones", n)
	}
}

// TestHorizonLaw: for every unit of every generated query, under every
// plan, over an unchanged store the unit's output is the same at every
// instant between its evaluation and its horizon — sampled through the
// interval and just short of its end; a unit whose horizon is the instant
// itself promises nothing. Where the horizon is what bounds the interval,
// the output may change there, and over the corpus it must do so
// somewhere, or the law is vacuous.
func TestHorizonLaw(t *testing.T) {
	bounded, changed := 0, 0
	check := func(name string, e *Engine, frags []*fragment.Fragment, at time.Time) {
		t.Helper()
		if _, _, err := e.Apply(nil, at, xcql.Limits{}, nil, nil); err != nil {
			return // e.g. CaQ before the root filler: nothing to hold
		}
		// a stored version that becomes visible changes the store the
		// units read: pending arrivals, not horizons, schedule for it
		var nextVisible time.Time
		for _, f := range frags {
			if f.ValidTime.After(at) && (nextVisible.IsZero() || f.ValidTime.Before(nextVisible)) {
				nextVisible = f.ValidTime
			}
		}
		for _, u := range e.order {
			serials := func(at time.Time) (string, time.Time) {
				res, err := e.evalUnit(u.key, at, xcql.Limits{}, nil)
				if err != nil {
					t.Fatalf("%s unit %v at %s: %v", name, u.key, at, err)
				}
				var b strings.Builder
				for _, en := range res.entries {
					b.WriteString(en.serial)
					b.WriteByte('\n')
				}
				return b.String(), res.horizon
			}
			want, horizon := serials(at)
			end := horizon
			if end.IsZero() {
				end = at.Add(10000 * time.Hour)
			}
			if !nextVisible.IsZero() && nextVisible.Before(end) {
				end = nextVisible
			}
			span := end.Sub(at)
			for _, d := range []time.Duration{time.Nanosecond, span / 3, span / 2, span - time.Nanosecond} {
				if d <= 0 || d >= span {
					continue
				}
				if got, _ := serials(at.Add(d)); got != want {
					t.Fatalf("%s unit %v: evaluated at %s with horizon %s, but %s later it yields\n%s\nnot\n%s",
						name, u.key, at, horizon, d, got, want)
				}
			}
			if horizon.After(at) && end.Equal(horizon) {
				bounded++
				if got, _ := serials(horizon); got != want {
					changed++
				}
			}
		}
	}
	for seed := int64(1); seed <= 8; seed++ {
		for _, p := range []genstore.Profile{{Seed: seed}, {Seed: seed, Reannounce: true}} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatal(err)
			}
			st, err := ins.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			rt := xcql.NewRuntime()
			rt.RegisterStream("s", st)
			for _, query := range ins.Queries {
				for _, mode := range []xcql.Mode{xcql.CaQ, xcql.QaC, xcql.QaCPlus} {
					for _, at := range ins.Instants[1:] {
						check(fmt.Sprintf("%s/%s/%s", p, query.Name, mode), New(rt.MustCompile(query.Src, mode)), ins.Fragments, at)
					}
				}
			}
		}
	}
	t.Logf("%d units had a horizon ahead of them, %d changed there", bounded, changed)
	if bounded == 0 || changed == 0 {
		t.Fatalf("%d units had a horizon ahead of them and %d changed there: the corpus does not exercise the law", bounded, changed)
	}

	// a temporal tag under a now-relative window: the lifespans are
	// clipped to the moving bounds, which the projection writes
	// symbolically ("now-PT1H"), so the output holds still between two
	// edge crossings and the horizon is the next crossing, not the
	// instant; what reads the clock as a value collapses
	rt, cs := newCreditStream(t, 1)
	limit := func(v int, at time.Time) {
		cs.add(fragment.New(50, 4, at, xmldom.TextElem("creditLimit", fmt.Sprint(v))))
	}
	acct := cs.pub.Account(0, creditBase.Add(time.Second))
	acct.Payload.AppendChild(fragment.NewHole(50, 4))
	cs.add(acct)
	limit(1000, creditBase.Add(time.Minute))
	limit(2000, creditBase.Add(30*time.Minute))
	at := creditBase.Add(45 * time.Minute)
	for _, c := range []struct {
		src     string
		horizon time.Time
	}{
		// the first limit's start is the window's near edge an hour after
		// it, and behind it from the next instant on
		{`stream("credit")//creditLimit?[now-PT1H,now]`, creditBase.Add(time.Hour + time.Minute + time.Nanosecond)},
		// the second limit's start enters the window's far edge first
		{`for $a in stream("credit")//account return $a/creditLimit?[now-PT1H,now-PT20M]`, creditBase.Add(50 * time.Minute)},
		{`for $l in stream("credit")//creditLimit where vtFrom($l) < currentDateTime() - PT40M return $l`, at},
	} {
		e := New(rt.MustCompile(c.src, xcql.QaCPlus))
		check(c.src, e, nil, at)
		if len(e.order) != 1 || !e.order[0].horizon.Equal(c.horizon) {
			t.Errorf("%s at %s: units %d, horizon %s, want one unit valid until %s", c.src, at, len(e.order), e.order[0].horizon, c.horizon)
		}
	}
}
