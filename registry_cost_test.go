package xcql_test

// Shared-cost monotonicity: the registry's reason to exist is that K
// standing queries sharing an access path cost ~1 query's evaluation
// per arriving fragment, not K of them. These tests extend the counter-
// monotonicity suite to the sharing layer: the group's cost counters
// (FillersScanned, HandlerInvocations) after a replay must be ~flat in
// K, and BenchmarkRegistryFanout exposes the same claim as a benchmark
// grid (shared vs independent × K) for the BENCH snapshots.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/registry"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// registryCostFixture is one credit stream preloaded with events plus a
// tail of arrivals to replay, and an engine wired to it.
type registryCostFixture struct {
	engine   *xcql.Engine
	store    *xcql.Store
	arrivals []*xcql.Fragment
	at       time.Time
}

// newRegistryCostFixture builds a store with preload transactions
// already ingested and tail arrival fragments prebuilt (every filler
// announced up front, so arrivals are pure event ingest).
func newRegistryCostFixture(tb testing.TB, preload, tail int) *registryCostFixture {
	tb.Helper()
	structure, err := tagstruct.ParseString(benchCreditStructure)
	if err != nil {
		tb.Fatal(err)
	}
	st := fragment.NewStore(structure)
	base := time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)
	el := func(src string) *xmldom.Node { return xmldom.MustParseString(src).Root() }
	var holes strings.Builder
	holes.WriteString(`<hole id="2" tsid="4"/>`)
	for i := 0; i < preload+tail; i++ {
		fmt.Fprintf(&holes, `<hole id="%d" tsid="5"/>`, 100+i)
	}
	mustAddT(tb, st, fragment.New(0, 1, base, el(`<creditAccounts><hole id="1" tsid="2"/></creditAccounts>`)))
	mustAddT(tb, st, fragment.New(1, 2, base, el(`<account id="1234"><customer>J</customer>`+holes.String()+`</account>`)))
	mustAddT(tb, st, fragment.New(2, 4, base, el(`<creditLimit>5000</creditLimit>`)))
	newTx := func(i int) *xcql.Fragment {
		tx := fmt.Sprintf(`<transaction id="t%d"><vendor>V</vendor><amount>%d</amount></transaction>`, i, 10+i%90)
		return fragment.New(100+i, 5, base.Add(time.Duration(i)*time.Second), el(tx))
	}
	for i := 0; i < preload; i++ {
		mustAddT(tb, st, newTx(i))
	}
	arrivals := make([]*xcql.Fragment, tail)
	for i := range arrivals {
		arrivals[i] = newTx(preload + i)
	}
	e := xcql.NewEngine()
	e.RegisterStore("credit", st)
	return &registryCostFixture{
		engine:   e,
		store:    st,
		arrivals: arrivals,
		at:       base.Add(time.Duration(preload) * time.Second),
	}
}

func mustAddT(tb testing.TB, st *xcql.Store, f *xcql.Fragment) {
	tb.Helper()
	if err := st.Add(f); err != nil {
		tb.Fatal(err)
	}
}

const registryCostQuery = `for $t in stream("credit")//transaction return $t`

// replayRegistryCost registers K copies of the query under each mode and
// replays the fixture's arrivals through the registry, returning the
// sharing group's accumulated stats.
func replayRegistryCost(tb testing.TB, fx *registryCostFixture, k int, modes ...xcql.Mode) xcql.RegistryGroupStats {
	tb.Helper()
	r := fx.engine.Registry()
	at := fx.at
	r.SetClock(func() time.Time { return at })
	regs := make([]*xcql.QueryRegistration, k*len(modes))
	for i := range regs {
		q, err := fx.engine.Compile(registryCostQuery, modes[i/k])
		if err != nil {
			tb.Fatal(err)
		}
		reg, err := r.Register(q, xcql.RegistryOptions{OnResult: func(xcql.RegistryResult) {}})
		if err != nil {
			tb.Fatal(err)
		}
		regs[i] = reg
	}
	for _, f := range fx.arrivals {
		mustAddT(tb, fx.store, f)
		if f.ValidTime.After(at) {
			at = f.ValidTime
		}
		r.Apply(f)
	}
	groups := r.Groups()
	if len(groups) != 1 {
		tb.Fatalf("expected 1 sharing group, got %d", len(groups))
	}
	if got := groups[0].Members; got != len(regs) {
		tb.Fatalf("group members = %d, want %d", got, len(regs))
	}
	for _, reg := range regs {
		reg.Close()
	}
	return groups[0]
}

// TestRegistrySharedCostMonotonic pins the sharing claim on the
// counters: a group of K=8 registrations over one access path must
// report per-replay FillersScanned and HandlerInvocations within 1.5×
// of a single registration — ~1× cost, not K× — with the saved work
// visible in SharedSaved.
func TestRegistrySharedCostMonotonic(t *testing.T) {
	const k = 8
	t.Run("incremental", func(t *testing.T) {
		one := replayRegistryCost(t, newRegistryCostFixture(t, 100, 50), 1, xcql.QaCPlus)
		many := replayRegistryCost(t, newRegistryCostFixture(t, 100, 50), k, xcql.QaCPlus)
		check := func(name string, got, base int64) {
			t.Helper()
			if base == 0 {
				t.Fatalf("%s: single-registration baseline is 0 — fixture measures nothing", name)
			}
			// ~flat: well under 1.5× one query, nowhere near K×
			if got*2 > base*3 {
				t.Errorf("%s: group cost with %d members = %d, want ~%d (1x); sharing is not deduplicating",
					name, k, got, base)
			}
		}
		check("FillersScanned", many.Stats.FillersScanned, one.Stats.FillersScanned)
		check("HandlerInvocations", many.Stats.HandlerInvocations, one.Stats.HandlerInvocations)
		if many.SharedUnits == 0 {
			t.Errorf("SharedUnits = 0: no unit signature is held by more than one member")
		}
		if many.SharedSaved == 0 {
			t.Errorf("SharedSaved = 0 with %d members sharing one path", k)
		}
		if one.SharedSaved != 0 {
			t.Errorf("SharedSaved = %d with a single member: nothing to share", one.SharedSaved)
		}
	})

	// Identical registrations share a whole engine, so the per-arrival
	// unit memo only proves itself across DISTINCT plans that decompose
	// into an overlapping piece: a sequence query carries the same
	// //transaction unit as the plain query, and the second engine to
	// advance must hit the first engine's unit results.
	t.Run("cross-plan-unit-sharing", func(t *testing.T) {
		fx := newRegistryCostFixture(t, 100, 50)
		r := fx.engine.Registry()
		at := fx.at
		r.SetClock(func() time.Time { return at })
		srcs := []string{
			registryCostQuery,
			`(stream("credit")//transaction, stream("credit")//transaction/amount)`,
		}
		for _, src := range srcs {
			q, err := fx.engine.Compile(src, xcql.QaCPlus)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Register(q, xcql.RegistryOptions{OnResult: func(xcql.RegistryResult) {}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range fx.arrivals {
			mustAddT(t, fx.store, f)
			if f.ValidTime.After(at) {
				at = f.ValidTime
			}
			r.Apply(f)
		}
		var hits, units int64
		for _, g := range r.Groups() {
			hits += g.Stats.SharedUnitHits
			units += int64(g.SharedUnits)
		}
		if hits == 0 {
			t.Errorf("SharedUnitHits = 0: the shared pass never served a unit across distinct plans")
		}
		if units == 0 {
			t.Errorf("SharedUnits = 0: no unit signature is held by more than one member")
		}
	})
}

// TestRegistryOldPlanSpelling: "QaC++" names no plan of its own — it
// parses as QaC+ (xcql.ParseMode), for clients that still send it. One
// query registered under both spellings, through RegistryOptions and
// through POST /v1/query, is one sharing group in which no arrival costs
// more than one handler invocation, and every registration delivers what
// replayOracle computes for QaC+. POST /v1/eval under "QaC++" answers
// QaC+'s items.
func TestRegistryOldPlanSpelling(t *testing.T) {
	const src = `for $t in stream("s")//transaction return $t`
	spellings := []string{"QaC+", "QaC++"}
	pub, frags := genstore.NewCreditPublisher(3)
	for i := 1; i <= 30; i++ {
		announce, tx := pub.Charge(i%3, 10*i, genstore.CreditBase.Add(time.Duration(i)*time.Minute))
		frags = append(frags, announce, tx)
	}
	ins := &genstore.Instance{Structure: xcql.MustParseTagStructure(genstore.CreditStructure), Fragments: frags}
	want := replayOracle(t, ins, frags, src, xcql.QaCPlus)

	st := fragment.NewStore(ins.Structure)
	e := xcql.NewEngine()
	e.RegisterStore("s", st)
	var at time.Time
	r := e.Registry()
	r.SetClock(func() time.Time { return at })
	api := e.ServeQueryAPI()
	api.SetClock(func() time.Time { return at })
	post := func(path, body string) []byte {
		t.Helper()
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}

	traces := make([]replayTrace, len(spellings))
	regs := make([]*xcql.QueryRegistration, len(spellings))
	for i, spelling := range spellings {
		mode, err := xcql.ParseMode(spelling)
		if err != nil {
			t.Fatal(err)
		}
		q, err := e.Compile(src, mode)
		if err != nil {
			t.Fatal(err)
		}
		regs[i], err = r.Register(q, xcql.RegistryOptions{OnResult: func(res xcql.RegistryResult) {
			if res.Err != nil {
				traces[i].deltas = append(traces[i].deltas, "!error")
				return
			}
			traces[i].deltas = append(traces[i].deltas, xcql.FormatSequence(res.Delta))
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, spelling := range spellings {
		var ack struct{ Mode, Group string }
		body := fmt.Sprintf(`{"query":%q,"mode":%q,"buffer":4096}`, src, spelling)
		if err := json.Unmarshal(post("/v1/query", body), &ack); err != nil {
			t.Fatal(err)
		}
		if ack.Mode != "QaC+" || ack.Group != regs[0].Stats().Group {
			t.Errorf("POST /v1/query under %q: registered as %+v, want QaC+ on %s", spelling, ack, regs[0].Stats().Group)
		}
	}

	replaySteps(t, st, frags, &at, func(f *xcql.Fragment) {
		before := r.Groups()[0].Stats.HandlerInvocations
		r.Apply(f)
		if d := r.Groups()[0].Stats.HandlerInvocations - before; d > 1 || (d != 1 && f != nil && f.TSID == 5) {
			t.Errorf("arrival of %v at %s cost %d handler invocations, want one per transaction", f, at, d)
		}
	})
	if groups := r.Groups(); len(groups) != 1 || groups[0].Members != 2*len(spellings) {
		t.Fatalf("groups %+v: want the %d registrations in one", groups, 2*len(spellings))
	}
	for i, spelling := range spellings {
		traces[i].final = xcql.FormatSequence(regs[i].ItemsSnapshot())
		if traces[i].String() != want.String() {
			t.Errorf("registration under %q diverged from the QaC+ oracle\noracle:\n%s\nregistry:\n%s",
				spelling, harnessTruncate(want.String()), harnessTruncate(traces[i].String()))
		}
	}
	for _, rs := range r.Registrations() {
		if rs.Evaluations != regs[0].Stats().Evaluations || rs.Dropped != 0 || rs.Degraded != "" {
			t.Errorf("registration %+v: want the deliveries of %+v", rs, regs[0].Stats())
		}
	}

	evalBody := func(spelling string) []byte {
		return post("/v1/eval", fmt.Sprintf(`{"query":%q,"mode":%q}`, src, spelling))
	}
	if plus, old := evalBody("QaC+"), evalBody("QaC++"); !bytes.Equal(plus, old) || !bytes.Contains(plus, []byte("<transaction")) {
		t.Errorf("POST /v1/eval under QaC++ answered\n%s\nunder QaC+\n%s", old, plus)
	}
}

// TestRegistrySharesUnitsAcrossPlans: a sharing group is the stores its
// members read and their limits, not their access paths, so a unit is
// evaluated once per arrival for every registration whose decomposition
// holds it — beside a plan that reads more paths — and every registration
// still delivers what replayOracle computes for it alone.
func TestRegistrySharesUnitsAcrossPlans(t *testing.T) {
	t.Run("superset-path-set", func(t *testing.T) {
		fx := newRegistryCostFixture(t, 100, 50)
		r := fx.engine.Registry()
		at := fx.at
		r.SetClock(func() time.Time { return at })
		for _, src := range []string{registryCostQuery, `(stream("credit")//transaction, stream("credit")//account)`} {
			q, err := fx.engine.Compile(src, xcql.QaCPlus)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Register(q, xcql.RegistryOptions{OnResult: func(xcql.RegistryResult) {}}); err != nil {
				t.Fatal(err)
			}
		}
		for _, f := range fx.arrivals {
			mustAddT(t, fx.store, f)
			at = f.ValidTime
			r.Apply(f)
		}
		groups := r.Groups()
		if len(groups) != 1 || groups[0].Stats.SharedUnitHits == 0 || groups[0].SharedUnits == 0 {
			t.Fatalf("groups %+v: want one group in which the transaction unit is shared", groups)
		}
		regs := r.Registrations()
		if regs[0].Group != "tsid-index(credit:5)" || regs[1].Group != "tsid-index(credit:2) tsid-index(credit:5)" {
			t.Errorf("registrations report access paths %q and %q, want each its own", regs[0].Group, regs[1].Group)
		}
		checkRegistryAgainstOracle(t, []regSpec{
			{src: `for $t in stream("s")//transaction return $t`, mode: xcql.QaCPlus},
			{src: `(stream("s")//transaction, stream("s")//account)`, mode: xcql.QaCPlus},
		})
	})
}

// checkRegistryAgainstOracle replays a credit stream of re-announced
// accounts through one registry holding every spec and holds each
// registration's deltas and standing result to replayOracle's.
func checkRegistryAgainstOracle(t *testing.T, specs []regSpec) {
	t.Helper()
	pub, frags := genstore.NewCreditPublisher(3)
	for i := 1; i <= 30; i++ {
		announce, tx := pub.Charge(i%3, 10*i, genstore.CreditBase.Add(time.Duration(i)*time.Minute))
		frags = append(frags, announce, tx)
	}
	ins := &genstore.Instance{Structure: xcql.MustParseTagStructure(genstore.CreditStructure), Fragments: frags}
	for i, got := range replayRegistry(t, ins, frags, specs) {
		want := replayOracle(t, ins, frags, specs[i].src, specs[i].mode)
		if got.String() != want.String() {
			t.Fatalf("registration %d (%s, %q) diverged from the oracle\noracle:\n%s\nregistry:\n%s",
				i, specs[i].mode, specs[i].src, harnessTruncate(want.String()), harnessTruncate(got.String()))
		}
	}
}

// BenchmarkRegistryFanout is the sharing headline of the BENCH snapshots:
// per-fragment cost with K standing queries over one shared access
// path, registry-shared vs K independent standing queries (K registries
// of one registration each). Shared
// mode should stay ~flat in K (handlers/op ~1×); independent mode grows
// ~linearly.
func BenchmarkRegistryFanout(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shared/k=%d", k), func(b *testing.B) {
			benchRegistryFanout(b, k)
		})
		b.Run(fmt.Sprintf("independent/k=%d", k), func(b *testing.B) {
			fx := newRegistryCostFixture(b, 100, b.N)
			at := fx.at
			regs := make([]*xcql.QueryRegistry, k)
			var handlers int64
			queries := make([]*xcql.Query, k)
			for i := range regs {
				q, err := fx.engine.Compile(registryCostQuery, xcql.QaCPlus)
				if err != nil {
					b.Fatal(err)
				}
				queries[i] = q
				regs[i] = registry.New(func() time.Time { return at })
				if _, err := regs[i].Register(q, registry.Options{OnResult: func(res registry.Result) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
				}}); err != nil {
					b.Fatal(err)
				}
				regs[i].Evaluate()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := fx.arrivals[i]
				mustAddT(b, fx.store, f)
				if f.ValidTime.After(at) {
					at = f.ValidTime
				}
				for _, r := range regs {
					r.Apply(f)
				}
			}
			b.StopTimer()
			for _, q := range queries {
				handlers += q.LastStats().HandlerInvocations
			}
			b.ReportMetric(float64(handlers)/float64(b.N), "handlers-last/op")
		})
	}
}

// benchRegistryFanout replays b.N arrivals through one registry holding k
// registrations of the query under QaC+.
func benchRegistryFanout(b *testing.B, k int) {
	fx := newRegistryCostFixture(b, 100, b.N)
	r := fx.engine.Registry()
	at := fx.at
	r.SetClock(func() time.Time { return at })
	var delivered int64
	for range k {
		q, err := fx.engine.Compile(registryCostQuery, xcql.QaCPlus)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Register(q, xcql.RegistryOptions{OnResult: func(xcql.RegistryResult) { delivered++ }}); err != nil {
			b.Fatal(err)
		}
	}
	// seed the standing state outside the timer
	r.Evaluate()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := fx.arrivals[i]
		mustAddT(b, fx.store, f)
		if f.ValidTime.After(at) {
			at = f.ValidTime
		}
		r.Apply(f)
	}
	b.StopTimer()
	g := r.Groups()[0]
	b.ReportMetric(float64(g.Stats.HandlerInvocations)/float64(b.N), "handlers/op")
	b.ReportMetric(float64(g.SharedSaved)/float64(b.N), "shared-saved/op")
	b.ReportMetric(float64(delivered)/float64(b.N), "fanout/op")
}
