package inc

import (
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xcql"
)

// TestUnboundPlanRerunsEveryEvaluation: a plan over two streams binds no
// store, so it is one broad piece, and no index says which stored versions
// an instant makes visible there. Every evaluation re-runs it, the clock's
// included: a charge stored ahead of its validTime, before the engine was
// seeded, shows once the clock passes it, as in a from-scratch evaluation.
func TestUnboundPlanRerunsEveryEvaluation(t *testing.T) {
	rt, cs := newCreditStream(t, 1)
	rt.RegisterStream("mirror", fragment.NewStore(cs.store.Structure()))
	q := rt.MustCompile(`(stream("credit")//transaction/amount, stream("mirror")//transaction/amount)`, xcql.QaCPlus)
	e := New(q)
	if got := e.Strategy(); !strings.Contains(got, "does not name exactly one registered stream") {
		t.Fatalf("strategy %q, want one broad piece", got)
	}
	later := creditBase.Add(time.Hour)
	cs.charge(0, 700, later)
	for _, at := range []time.Time{creditBase, later} {
		delta, _, err := e.Apply(nil, at, xcql.Limits{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := q.Eval(at)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := strings.Join(itemSerials(delta), ","), strings.Join(itemSerials(ref), ","); got != want {
			t.Fatalf("at %s: delta %q, a from-scratch evaluation %q", at.Format(time.TimeOnly), got, want)
		}
	}
	if len(e.ItemsSnapshot()) != 1 {
		t.Fatalf("standing result %q, want the one charge", itemSerials(e.ItemsSnapshot()))
	}
}

// TestEvaluationAfterUnreportedWrites: a fragment-less evaluation that
// finds the store moved since the last evaluation re-reads it, as a
// from-scratch evaluation would. Arrivals stored ahead of their Apply do
// not make an arrival rebuild: each still runs its own units only.
func TestEvaluationAfterUnreportedWrites(t *testing.T) {
	rt, cs := newCreditStream(t, 2)
	e := New(rt.MustCompile(filterQuery, xcql.QaCPlus))
	apply := func(f *fragment.Fragment, at time.Time) (string, int64) {
		t.Helper()
		var st obs.EvalStats
		delta, _, err := e.Apply(f, at, xcql.Limits{}, &st)
		if err != nil {
			t.Fatal(err)
		}
		return strings.Join(itemSerials(delta), ","), st.HandlerInvocations
	}
	apply(nil, creditBase)
	at := creditBase.Add(time.Minute)
	cs.charge(0, 900, at) // stored, never handed in
	if got, _ := apply(nil, at); !strings.Contains(got, ">900<") {
		t.Fatalf("evaluation after an unreported charge: delta %q, want the charge", got)
	}
	announce, tx := cs.charge(1, 800, at)
	if got, n := apply(announce, at); got != "" || n != 0 {
		t.Fatalf("re-announcement stored with its transaction: delta %q, %d units, want none", got, n)
	}
	if got, n := apply(tx, at); !strings.Contains(got, ">800<") || n != 1 {
		t.Fatalf("transaction: delta %q, %d units, want the charge from its own unit", got, n)
	}
}
