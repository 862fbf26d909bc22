package xcql_test

// Shared-cost monotonicity: the registry's reason to exist is that K
// standing queries sharing an access path cost ~1 query's evaluation
// per arriving fragment, not K of them. These tests extend the counter-
// monotonicity suite to the sharing layer: the group's cost counters
// (FillersScanned, HandlerInvocations) after a replay must be ~flat in
// K, and BenchmarkRegistryFanout exposes the same claim as a benchmark
// grid (shared vs independent × K) for the BENCH snapshots.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
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
		// a QaC++ registration reports its access cost in the plan's own
		// counters — label-range lookups and the elements the reads built —
		// and, as in a one-shot evaluation, no log pass
		pp := replayRegistryCost(t, newRegistryCostFixture(t, 100, 50), 1, xcql.QaCPlusPlus)
		if pp.Stats.LabelRangeLookups == 0 || pp.Stats.LabelRangeHits == 0 || pp.Stats.NodesConstructed == 0 {
			t.Errorf("QaC++ group reports no access cost: label lookups=%d hits=%d nodes=%d",
				pp.Stats.LabelRangeLookups, pp.Stats.LabelRangeHits, pp.Stats.NodesConstructed)
		}
		if pp.Stats.FillersScanned != 0 {
			t.Errorf("QaC++ group FillersScanned = %d, want 0", pp.Stats.FillersScanned)
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

// TestRegistrySharesUnitsAcrossPlans: a sharing group is the stores its
// members read and their limits, not their access paths, so a unit is
// evaluated once per arrival for every registration whose decomposition
// holds it — under QaC+ and QaC++ alike, and beside a plan that reads
// more paths — and every registration still delivers what replayOracle
// computes for it alone.
func TestRegistrySharesUnitsAcrossPlans(t *testing.T) {
	t.Run("cross-mode", func(t *testing.T) {
		one := replayRegistryCost(t, newRegistryCostFixture(t, 100, 50), 1, xcql.QaCPlus)
		mixed := replayRegistryCost(t, newRegistryCostFixture(t, 100, 50), 8, xcql.QaCPlus, xcql.QaCPlusPlus)
		if mixed.Stats.SharedUnitHits == 0 {
			t.Errorf("SharedUnitHits = 0: the QaC++ engine did not take the QaC+ engine's units")
		}
		if got, base := mixed.Stats.HandlerInvocations, one.Stats.HandlerInvocations; got*2 > base*3 {
			t.Errorf("HandlerInvocations of 8 QaC+ and 8 QaC++ registrations = %d, want ~%d (1x)", got, base)
		}
		const src = `for $t in stream("s")//transaction return $t`
		var specs []regSpec
		for _, mode := range []xcql.Mode{xcql.QaCPlus, xcql.QaCPlusPlus} {
			for range 8 {
				specs = append(specs, regSpec{src: src, mode: mode})
			}
		}
		checkRegistryAgainstOracle(t, specs)
	})

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
		want := replayOracle(t, ins, frags, specs[i].src, specs[i].mode, execConfigs[0])
		if got.String() != want.String() {
			t.Fatalf("registration %d (%s, %q) diverged from the oracle\noracle:\n%s\nregistry:\n%s",
				i, specs[i].mode, specs[i].src, harnessTruncate(want.String()), harnessTruncate(got.String()))
		}
	}
}

// BenchmarkRegistryFanout is the sharing headline of the BENCH snapshots:
// per-fragment cost with K standing queries over one shared access
// path, registry-shared vs K independent continuous queries. Shared
// mode should stay ~flat in K (handlers/op ~1×); independent mode grows
// ~linearly. The mixed rows hold K/2 QaC+ and K/2 QaC++ registrations,
// two engines whose one unit is evaluated once: their handlers/op is the
// shared rows'.
func BenchmarkRegistryFanout(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shared/k=%d", k), func(b *testing.B) {
			benchRegistryFanout(b, k, xcql.QaCPlus)
		})
		if k > 1 {
			b.Run(fmt.Sprintf("mixed/k=%d", k), func(b *testing.B) {
				benchRegistryFanout(b, k/2, xcql.QaCPlus, xcql.QaCPlusPlus)
			})
		}
		b.Run(fmt.Sprintf("independent/k=%d", k), func(b *testing.B) {
			fx := newRegistryCostFixture(b, 100, b.N)
			at := fx.at
			cqs := make([]*xcql.ContinuousQuery, k)
			var handlers int64
			queries := make([]*xcql.Query, k)
			for i := range cqs {
				q, err := fx.engine.Compile(registryCostQuery, xcql.QaCPlus)
				if err != nil {
					b.Fatal(err)
				}
				queries[i] = q
				cq := xcql.NewContinuousQuery(q, func(xcql.Result) {})
				cq.Clock = func() time.Time { return at }
				if err := cq.EvaluateFragment(nil); err != nil {
					b.Fatal(err)
				}
				cqs[i] = cq
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := fx.arrivals[i]
				mustAddT(b, fx.store, f)
				if f.ValidTime.After(at) {
					at = f.ValidTime
				}
				for _, cq := range cqs {
					if err := cq.EvaluateFragment(f); err != nil {
						b.Fatal(err)
					}
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
// registrations of the query under each mode.
func benchRegistryFanout(b *testing.B, k int, modes ...xcql.Mode) {
	fx := newRegistryCostFixture(b, 100, b.N)
	r := fx.engine.Registry()
	at := fx.at
	r.SetClock(func() time.Time { return at })
	var delivered int64
	for _, mode := range modes {
		for range k {
			q, err := fx.engine.Compile(registryCostQuery, mode)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Register(q, xcql.RegistryOptions{OnResult: func(xcql.RegistryResult) { delivered++ }}); err != nil {
				b.Fatal(err)
			}
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
