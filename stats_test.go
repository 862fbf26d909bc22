package xcql_test

import (
	"context"
	"testing"

	"xcql"
	"xcql/internal/evalbench"
)

// statsFor evaluates src under mode on the dataset and returns the
// recorded cost counters.
func statsFor(t *testing.T, ds *evalbench.Dataset, src string, mode xcql.Mode) xcql.EvalStats {
	t.Helper()
	q, err := ds.Runtime.Compile(src, mode)
	if err != nil {
		t.Fatalf("%s: compile: %v", mode, err)
	}
	if _, err := q.Eval(evalbench.EvalInstant); err != nil {
		t.Fatalf("%s: eval: %v", mode, err)
	}
	return q.LastStats()
}

// Every plan must populate its stats on the Figure-4 workload: the
// counters are the paper's cost quantities made observable, so an empty
// profile means the instrumentation fell off an access path.
func TestEvalStatsPopulated(t *testing.T) {
	ds, err := evalbench.Build(0.005, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, qc := range evalbench.Queries() {
		for _, mode := range evalbench.Modes {
			s := statsFor(t, ds, qc.Src, mode)
			if s.Plan != mode.String() {
				t.Errorf("%s/%s: Plan = %q", qc.Name, mode, s.Plan)
			}
			if s.FillersScanned == 0 {
				t.Errorf("%s/%s: FillersScanned = 0", qc.Name, mode)
			}
			if s.HolesResolved == 0 {
				t.Errorf("%s/%s: HolesResolved = 0", qc.Name, mode)
			}
			if s.Steps == 0 {
				t.Errorf("%s/%s: Steps = 0", qc.Name, mode)
			}
			if s.BytesMaterialized == 0 {
				t.Errorf("%s/%s: BytesMaterialized = 0", qc.Name, mode)
			}
			if s.TotalTime <= 0 {
				t.Errorf("%s/%s: TotalTime = %v", qc.Name, mode, s.TotalTime)
			}
			if s.ExecTime <= 0 {
				t.Errorf("%s/%s: ExecTime = %v", qc.Name, mode, s.ExecTime)
			}
		}
	}
}

// The paper's Figure-4 ordering, encoded on the counters instead of wall
// time: under the scan cost model every store pass examines the whole
// fragment log, so FillersScanned orders the plans by access cost — QaC+
// batches all hole ids of a step into one pass, QaC pays one pass per
// hole, and CaQ pays one pass for every hole in the document.
func TestFillersScannedMonotonic(t *testing.T) {
	// the cost-model claim is about scan passes: use the scan store
	scan, err := evalbench.Build(0.005, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, qc := range evalbench.Queries() {
		plus := statsFor(t, scan, qc.Src, xcql.QaCPlus)
		qac := statsFor(t, scan, qc.Src, xcql.QaC)
		caq := statsFor(t, scan, qc.Src, xcql.CaQ)
		if !(plus.FillersScanned < qac.FillersScanned) {
			t.Errorf("%s: FillersScanned QaC+ (%d) !< QaC (%d)",
				qc.Name, plus.FillersScanned, qac.FillersScanned)
		}
		if !(qac.FillersScanned < caq.FillersScanned) {
			t.Errorf("%s: FillersScanned QaC (%d) !< CaQ (%d)",
				qc.Name, qac.FillersScanned, caq.FillersScanned)
		}
		if plus.HolesResolved > qac.HolesResolved {
			t.Errorf("%s: HolesResolved QaC+ (%d) > QaC (%d)",
				qc.Name, plus.HolesResolved, qac.HolesResolved)
		}
		if !(qac.HolesResolved < caq.HolesResolved) {
			t.Errorf("%s: HolesResolved QaC (%d) !< CaQ (%d)",
				qc.Name, qac.HolesResolved, caq.HolesResolved)
		}
		// only CaQ builds the whole view, so it must construct the most nodes
		if !(qac.NodesConstructed < caq.NodesConstructed) {
			t.Errorf("%s: NodesConstructed QaC (%d) !< CaQ (%d)",
				qc.Name, qac.NodesConstructed, caq.NodesConstructed)
		}
	}
}

// The tsid index is QaC+'s private shortcut: a descendant step from the
// stream top compiles to a direct tsid fetch under QaC+ and to path
// navigation under QaC/CaQ, so index hits must be nonzero exactly for
// QaC+. (Q1/Q2/Q5 are child-path queries and never touch the index; the
// descendant query is what exercises it.)
func TestTSIDIndexHitsOnlyUnderQaCPlus(t *testing.T) {
	ds, err := evalbench.Build(0.005, true)
	if err != nil {
		t.Fatal(err)
	}
	const src = `for $c in stream("auction")//closed_auction return $c/price`
	plus := statsFor(t, ds, src, xcql.QaCPlus)
	if plus.TSIDIndexHits == 0 {
		t.Errorf("QaC+: TSIDIndexHits = 0 on a //-query, want > 0 (lookups=%d misses=%d)",
			plus.TSIDLookups, plus.TSIDIndexMisses)
	}
	for _, mode := range []xcql.Mode{xcql.QaC, xcql.CaQ} {
		s := statsFor(t, ds, src, mode)
		if s.TSIDLookups != 0 || s.TSIDIndexHits != 0 {
			t.Errorf("%s: tsid lookups = %d hits = %d, want 0/0", mode, s.TSIDLookups, s.TSIDIndexHits)
		}
	}
}

// A failed evaluation still records how far it got: the profile of a
// budget trip is exactly what an operator needs to size the limit.
func TestLastStatsRecordedOnBudgetTrip(t *testing.T) {
	ds, err := evalbench.Build(0.005, false)
	if err != nil {
		t.Fatal(err)
	}
	q, err := ds.Runtime.Compile(evalbench.Queries()[0].Src, xcql.QaC)
	if err != nil {
		t.Fatal(err)
	}
	_, err = q.EvalLimits(context.Background(), evalbench.EvalInstant, xcql.Limits{MaxSteps: 10})
	if err == nil {
		t.Fatal("MaxSteps=10 did not trip")
	}
	s := q.LastStats()
	if s.Steps == 0 {
		t.Errorf("Steps = 0 after a tripped evaluation, want the partial count")
	}
	if s.Plan != "QaC" {
		t.Errorf("Plan = %q, want QaC", s.Plan)
	}
}

// Engine.EvalContextStats returns the profile alongside the result.
func TestEngineEvalContextStats(t *testing.T) {
	engine := xcql.NewEngine()
	structure := xcql.MustParseTagStructure(structureXML)
	if _, err := engine.AddDocumentStream("credit", structure, xcql.MustParseDocument(docXML)); err != nil {
		t.Fatal(err)
	}
	at, _ := xcql.ParseDateTime("2003-12-01T00:00:00")
	seq, stats, err := engine.EvalContextStats(context.Background(),
		`for $a in stream("credit")/creditAccounts/account return $a/customer`,
		at.Time(), xcql.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) == 0 {
		t.Fatal("no results")
	}
	if stats.Plan != "QaC+" || stats.FillersScanned == 0 || stats.TotalTime <= 0 {
		t.Errorf("stats not populated: %s", stats.String())
	}
}

// The trace sink must see one span per phase for a traced evaluation,
// and compile-phase times must be copied into the evaluation's stats.
func TestTraceSpans(t *testing.T) {
	ds, err := evalbench.Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	sink := &xcql.CollectorSink{}
	ds.Runtime.SetTraceSink(sink)
	defer ds.Runtime.SetTraceSink(nil)
	q, err := ds.Runtime.Compile(evalbench.Queries()[0].Src, xcql.QaCPlus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Eval(evalbench.EvalInstant); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, sp := range sink.Spans() {
		names[sp.Name]++
	}
	for _, want := range []string{"parse", "translate", "execute", "materialize", "eval"} {
		if names[want] == 0 {
			t.Errorf("no %q span; got %v", want, names)
		}
	}
	s := q.LastStats()
	if s.ParseTime <= 0 || s.TranslateTime <= 0 {
		t.Errorf("compile times not copied into stats: parse=%v translate=%v", s.ParseTime, s.TranslateTime)
	}
}
