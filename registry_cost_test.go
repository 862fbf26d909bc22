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

// replayRegistryCost registers K copies of the query under mode and
// replays the fixture's arrivals through the registry, returning the
// sharing group's accumulated stats.
func replayRegistryCost(tb testing.TB, fx *registryCostFixture, k int, mode xcql.Mode) xcql.RegistryGroupStats {
	tb.Helper()
	r := fx.engine.Registry()
	at := fx.at
	r.SetClock(func() time.Time { return at })
	regs := make([]*xcql.QueryRegistration, k)
	for i := range regs {
		q, err := fx.engine.Compile(registryCostQuery, mode)
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
	if got := groups[0].Members; got != k {
		tb.Fatalf("group members = %d, want %d", got, k)
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

// BenchmarkRegistryFanout is the sharing headline of the BENCH snapshots:
// per-fragment cost with K standing queries over one shared access
// path, registry-shared vs K independent continuous queries. Shared
// mode should stay ~flat in K (handlers/op ~1×); independent mode grows
// ~linearly.
func BenchmarkRegistryFanout(b *testing.B) {
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shared/k=%d", k), func(b *testing.B) {
			fx := newRegistryCostFixture(b, 100, b.N)
			r := fx.engine.Registry()
			at := fx.at
			r.SetClock(func() time.Time { return at })
			var delivered int64
			for i := 0; i < k; i++ {
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
		})
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
