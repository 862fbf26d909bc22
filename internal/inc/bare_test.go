package inc

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"xcql/internal/budget"
	"xcql/internal/genstore"
	"xcql/internal/obs"
	"xcql/internal/xcql"
)

// TestClosedVersionKeepsItsOutput pins the memo's keep rule on a
// re-announced credit stream, one account charged a minute apart. The fraud
// query's body observes no stamp of its account's versions: its unit reads
// them bare, and a version keeps its output when only its lifespan's end
// moved, so a re-announcement re-runs the new version alone — the first
// one too: the seeding memoed the account's one version. Its twins that observe
// a stamp read stamped: the one returning the account re-runs the version
// whose lifespan the new one closes as well; the one testing vtTo against
// "now" re-runs besides these the version the charge before closed, whose
// vtTo equalled the instant it last ran at, a comparison that held for that
// instant only. The inc.recompute span says how many
// (versions=), and every step of all three, the clock taking each charge
// out of the window included, equals a from-scratch evaluation diffed
// against the one before.
func TestClosedVersionKeepsItsOutput(t *testing.T) {
	minute := func(m int) time.Time { return creditBase.Add(time.Duration(m) * time.Minute) }
	for _, c := range []struct {
		src  string
		bare bool
		// reannounce is the versions charge i's re-announcement re-runs
		reannounce func(i int) int
	}{
		{fraudQuery, true, func(int) int { return 1 }},
		{fraudAccountsQuery, false, func(int) int { return 2 }},
		{fraudCurrentQuery, false, func(i int) int { return min(i+1, 3) }},
	} {
		rt, cs := newCreditStream(t, 1)
		fr := newFraudReplay(t, rt, c.src)
		if len(fr.e.pieces) != 1 || !fr.e.pieces[0].indexed() || fr.e.pieces[0].bare != c.bare {
			t.Fatalf("%s: %s, bare=%v, want one per-binding piece, bare=%v", c.src, fr.e.Strategy(), fr.e.pieces[0].bare, c.bare)
		}
		rec := obs.NewFlightRecorder(obs.FlightRecorderOptions{SampleEvery: 1})
		fr.e.SetFlightRecorder(rec)
		fr.step(nil, creditBase)
		const charges = 8
		for i := 1; i <= charges; i++ {
			at := minute(i)
			announce, tx := cs.pub.Charge(0, 2000, at)
			announce.Trace = rec.NewTrace()
			fr.step(cs.add(announce), at)
			rec.Flush()
			spans := rec.TraceByID(announce.Trace.TraceID).Spans
			if len(spans) != 1 {
				t.Fatalf("%s, charge %d: spans %+v, want one inc.recompute span", c.src, i, spans)
			}
			if want := fmt.Sprintf(" versions=%d ", c.reannounce(i)); !strings.Contains(spans[0].Detail, want) {
				t.Fatalf("%s, charge %d, the re-announcement: %q, want%s", c.src, i, spans[0].Detail, want)
			}
			if n := fr.step(cs.add(tx), at); n != 1 {
				t.Fatalf("%s, charge %d, the transaction: %d versions re-run, want the one announcing it", c.src, i, n)
			}
		}
		for i := 1; i <= charges; i++ {
			fr.step(nil, minute(i).Add(time.Hour+time.Nanosecond))
		}
		if got := len(fr.e.ItemsSnapshot()); got != 0 {
			t.Fatalf("%s: every charge left the window; %d items stand", c.src, got)
		}
	}
}

// TestUnitReadIsBareWhenItsBodyObservesNoStamp: for every query genstore
// emits that decomposes under QaC+ into a per-binding piece, the unit read
// is bare exactly when the full plan reads the jump's versions bare — the
// EXPLAIN access line's tops=bare — where the jump carries no lifespan
// bound, and stamped where it does (the unit projects its versions to the
// bound). The folded body and the body it was folded from agree. A bare
// read changes which tops are built and nothing else: every unit evaluated
// from scratch at every instant returns what its stamped read returns, with
// the same horizon, charges the same fillers, holes, budget steps, items and
// bytes, builds fewer nodes, and trips a starved budget at the same point.
func TestUnitReadIsBareWhenItsBodyObservesNoStamp(t *testing.T) {
	pieces, bare, fewer := 0, 0, 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, p := range []genstore.Profile{{Seed: seed}, {Seed: seed, Reannounce: true, Duplicates: true}} {
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
			for _, gq := range ins.Queries {
				q, err := rt.Compile(gq.Src, xcql.QaCPlus)
				if err != nil {
					t.Fatalf("%s: %s: %v", p, gq.Src, err)
				}
				on, off := New(q), New(q)
				for pi, pc := range on.pieces {
					if !pc.indexed() {
						continue
					}
					pieces++
					what := fmt.Sprintf("%s: %s, piece %d", p, gq.Src, pi)
					if pc.folded != nil && xcql.UnitBare(pc.expr) != pc.bare {
						t.Errorf("%s: the folded body reads bare=%v, the body it was folded from %v", what, pc.bare, !pc.bare)
					}
					if want, ok := explainedBare(q, pc.tsids); ok && pc.bare != want {
						t.Errorf("%s: the unit reads bare=%v, EXPLAIN's jump tops=bare is %v\n%s", what, pc.bare, want, pc.body())
					}
					if !pc.bare {
						continue
					}
					bare++
					off.pieces[pi].bare = false
					for ai, tsid := range pc.tsids {
						fids, _ := st.TSIDFillers(tsid)
						for _, fid := range fids {
							k := unitKey{pi, ai, fid}
							for _, at := range ins.Instants {
								fewer += compareUnitReads(t, fmt.Sprintf("%s, filler %d at %s", what, fid, at.Format(time.RFC3339)), on, off, k, at)
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%d per-binding pieces, %d of them bare, %d unit evaluations built fewer nodes bare", pieces, bare, fewer)
	if bare == 0 || fewer == 0 || bare == pieces {
		t.Fatalf("%d per-binding pieces, %d bare, %d evaluations built fewer nodes: the rule goes unchecked", pieces, bare, fewer)
	}
}

// explainedBare is whether EXPLAIN shows the tsid-index access paths of
// tsids as tops=bare, when every one carries no lifespan bound and they
// agree.
func explainedBare(q *xcql.Query, tsids []int) (bare, ok bool) {
	seen := 0
	for _, tgt := range q.Explain().Targets {
		if tgt.Op != "tsid-index" || !slices.Contains(tsids, tgt.TSID) {
			continue
		}
		if tgt.Span != "" || seen > 0 && tgt.Bare != bare {
			return false, false
		}
		bare = tgt.Bare
		seen++
	}
	return bare, seen > 0
}

// compareUnitReads evaluates unit k from scratch at at in both engines,
// bare in on and stamped in off, and holds them to the same output, horizon
// and charges but nodes; it returns 1 when the bare read built fewer nodes.
// Under starved step, item and byte budgets both trip alike.
func compareUnitReads(t *testing.T, what string, on, off *Engine, k unitKey, at time.Time) int {
	t.Helper()
	var sb, ss obs.EvalStats
	rb, errb := on.evalUnit(k, at, xcql.Limits{}, &sb)
	rs, errs := off.evalUnit(k, at, xcql.Limits{}, &ss)
	if fmt.Sprint(errb) != fmt.Sprint(errs) {
		t.Fatalf("%s: bare fails with %v, stamped with %v", what, errb, errs)
	}
	if got, want := unitText(rb), unitText(rs); got != want {
		t.Fatalf("%s: bare read returns\n%s\nstamped\n%s", what, got, want)
	}
	type charge struct{ fillers, holes, tsid, steps, items, bytes int64 }
	cb := charge{sb.FillersScanned, sb.HolesResolved, sb.TSIDLookups, sb.Steps, sb.Items, sb.BytesMaterialized}
	cs := charge{ss.FillersScanned, ss.HolesResolved, ss.TSIDLookups, ss.Steps, ss.Items, ss.BytesMaterialized}
	if cb != cs {
		t.Fatalf("%s: bare read charged %+v, stamped %+v", what, cb, cs)
	}
	if sb.NodesConstructed > ss.NodesConstructed {
		t.Fatalf("%s: bare read built %d nodes, stamped %d", what, sb.NodesConstructed, ss.NodesConstructed)
	}
	for _, lim := range []xcql.Limits{
		{MaxSteps: max(cs.steps/2, 1)}, {MaxSteps: max(cs.steps-1, 1)},
		{MaxItems: max(cs.items/2, 1)}, {MaxItems: max(cs.items-1, 1)},
		{MaxBytes: max(cs.bytes/2, 1)}, {MaxBytes: max(cs.bytes-1, 1)},
	} {
		_, errb := on.evalUnit(k, at, lim, nil)
		_, errs := off.evalUnit(k, at, lim, nil)
		if fmt.Sprint(errb) != fmt.Sprint(errs) {
			t.Fatalf("%s under %+v: bare fails with %v, stamped with %v", what, lim, errb, errs)
		}
		var re *budget.ResourceError
		if errb != nil && !errors.As(errb, &re) {
			t.Fatalf("%s under %+v: %v", what, lim, errb)
		}
	}
	if sb.NodesConstructed < ss.NodesConstructed {
		return 1
	}
	return 0
}

// unitText is a unit's output and horizon as text.
func unitText(r unitResult) string {
	var b strings.Builder
	for _, en := range r.entries {
		b.WriteString(en.serial + "\n")
	}
	fmt.Fprintf(&b, "count %d, horizon %s", r.count, r.horizon.Format(time.RFC3339Nano))
	return b.String()
}
