package xcql

import (
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/tagstruct"
)

// Explain must name the same plan whose counters LastStats reports, for
// every physical plan, and the access paths must match the plan's shape:
// CaQ materializes, QaC walks get_fillers per hole, QaC+ takes the
// tsid-index shortcut.
func TestExplainMatchesPlanAcrossModes(t *testing.T) {
	const query = `for $t in stream("credit")//transaction return $t/amount`
	wantOps := map[Mode]string{
		CaQ:     "materialize-view",
		QaC:     "get_fillers",
		QaCPlus: "tsid-index",
	}
	for _, mode := range []Mode{CaQ, QaC, QaCPlus} {
		t.Run(mode.String(), func(t *testing.T) {
			rt := NewRuntime()
			rt.RegisterStream("credit", buildCreditStore(t))
			q := rt.MustCompile(query, mode)

			ex := q.Explain()
			if ex.Plan != mode.String() {
				t.Fatalf("Explain().Plan = %q, want %q", ex.Plan, mode.String())
			}
			if ex.Evaluated {
				t.Fatal("Evaluated = true before any evaluation")
			}
			if len(ex.Streams) != 1 || ex.Streams[0] != "credit" {
				t.Fatalf("Streams = %v", ex.Streams)
			}
			found := false
			for _, tgt := range ex.Targets {
				if tgt.Op == wantOps[mode] {
					found = true
				}
			}
			if !found {
				t.Fatalf("plan %s: no %q target in %v", mode, wantOps[mode], ex.Targets)
			}

			if _, err := q.Eval(evalAt); err != nil {
				t.Fatal(err)
			}
			ex = q.Explain()
			if !ex.Evaluated {
				t.Fatal("Evaluated = false after evaluation")
			}
			// the contract of the acceptance criteria: Explain names the
			// same plan whose counters LastStats reports
			if got := q.LastStats().Plan; ex.Plan != got || ex.Observed.Plan != got {
				t.Fatalf("Explain plan %q / observed %q != LastStats plan %q",
					ex.Plan, ex.Observed.Plan, got)
			}
			if ex.Observed.FillersScanned == 0 {
				t.Fatal("observed stats empty after evaluation")
			}
		})
	}
}

// The prediction is a store census: on the indexed store the QaC+
// tsid-index path predicts exactly the versions the index would return,
// and the observed counters of a real run agree.
func TestExplainPredictionTracksStore(t *testing.T) {
	rt := NewRuntime()
	rt.RegisterStream("credit", buildCreditStore(t))
	q := rt.MustCompile(`stream("credit")//transaction`, QaCPlus)

	ex := q.Explain()
	if len(ex.Targets) == 0 {
		t.Fatal("no targets")
	}
	tgt := ex.Targets[0]
	if tgt.Op != "tsid-index" || tgt.TSID != 5 || tgt.Tag != "transaction" {
		t.Fatalf("target = %+v", tgt)
	}
	if tgt.Versions == 0 || tgt.Holes == 0 {
		t.Fatalf("census empty: %+v", tgt)
	}
	if ex.Predicted.TSIDLookups != 1 {
		t.Fatalf("predicted tsid lookups = %d, want 1", ex.Predicted.TSIDLookups)
	}

	if _, err := q.Eval(evalAt); err != nil {
		t.Fatal(err)
	}
	obs := q.LastStats()
	// prediction counts versions ever stored; the observed index fetch
	// returns the ones alive at the evaluation instant — never more
	if obs.TSIDIndexHits > int64(tgt.Versions) {
		t.Errorf("observed hits %d > predicted versions %d", obs.TSIDIndexHits, tgt.Versions)
	}
	if obs.TSIDLookups != ex.Predicted.TSIDLookups {
		t.Errorf("tsid lookups: observed %d, predicted %d", obs.TSIDLookups, ex.Predicted.TSIDLookups)
	}
}

// An empty runtime still explains: unregistered streams census to zero
// instead of failing.
func TestExplainUnregisteredStream(t *testing.T) {
	rt := NewRuntime()
	rt.RegisterStream("credit", buildCreditStore(t))
	q := rt.MustCompile(`stream("credit")//transaction`, QaC)
	q.rt = NewRuntime() // same plan, no stores behind it anymore
	ex := q.Explain()
	if ex.Plan != "QaC" {
		t.Fatalf("plan = %q", ex.Plan)
	}
	for _, tgt := range ex.Targets {
		if tgt.Versions != 0 || tgt.Holes != 0 || tgt.CostPerPass != 0 {
			t.Errorf("census of unregistered stream not zero: %+v", tgt)
		}
	}
}

func TestExplainString(t *testing.T) {
	rt := NewRuntime()
	rt.RegisterStream("credit", buildCreditStore(t))
	q := rt.MustCompile(`stream("credit")//transaction`, QaCPlus)
	out := q.Explain().String()
	for _, want := range []string{
		"EXPLAIN plan=QaC+",
		"query:",
		"rewritten:",
		"streams:   credit",
		"tsid-index",
		"predicted:",
		"observed:  <not yet evaluated>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain output missing %q:\n%s", want, out)
		}
	}
	if _, err := q.Eval(evalAt); err != nil {
		t.Fatal(err)
	}
	out = q.Explain().String()
	if !strings.Contains(out, "observed:  fillers-scanned=") {
		t.Errorf("post-eval output missing observed line:\n%s", out)
	}
}

// A descendant jump to a tag name fragmented under two parents reads both
// tsids: EXPLAIN gives each its own access path and predicts the counters
// the run observes.
func TestExplainMultiTSIDJump(t *testing.T) {
	rt := NewRuntime()
	rt.RegisterStream("s", twinStore(t))
	q := rt.MustCompile(`count(stream("s")//x)`, QaCPlus)
	ex := q.Explain()
	var tsids []int
	for _, tgt := range ex.Targets {
		if tgt.Op == "tsid-index" {
			tsids = append(tsids, tgt.TSID)
		}
	}
	if len(tsids) != 2 || tsids[0] != 4 || tsids[1] != 5 {
		t.Fatalf("tsid-index targets %v, want [4 5]:\n%s", tsids, ex)
	}
	if _, err := q.Eval(evalAt); err != nil {
		t.Fatal(err)
	}
	p, o := ex.Predicted, q.LastStats()
	if p.FillersScanned != o.FillersScanned || p.TSIDLookups != o.TSIDLookups || p.TSIDIndexHits != o.TSIDIndexHits {
		t.Errorf("predicted %s, observed %s", statsLine(p), statsLine(o))
	}
}

// A jump to an event tag under a constant interval examines only what its
// window reaches: EXPLAIN renders the bound, predicts the counters the run
// observes at the store's newest arrival — a fraction of the tag's
// versions on a long history —, and a window that holds no version and
// one that ends before now predict what they examine too.
func TestExplainBoundedJump(t *testing.T) {
	st := fragment.NewStore(tagstruct.MustParseString(genstore.CreditStructure))
	pub, initial := genstore.NewCreditPublisher(20)
	if err := st.AddAll(initial); err != nil {
		t.Fatal(err)
	}
	var last time.Time
	for i := 1; i <= 720; i++ {
		last = genstore.CreditBase.Add(time.Duration(i) * 10 * time.Second)
		announce, tx := pub.Charge(i%20, i, last)
		if err := st.AddAll([]*fragment.Fragment{announce, tx}); err != nil {
			t.Fatal(err)
		}
	}
	rt := NewRuntime()
	rt.RegisterStream("credit", st)
	for _, src := range []string{
		`stream("credit")//transaction?[now-PT1H,now]`,
		`count(stream("credit")//transaction?[now-PT30M,now-PT10M])`,
		`count(stream("credit")//transaction?[now+PT1H,now+PT2H])`,
		`stream("credit")//transaction?[2003-11-01T00:30:00]`,
	} {
		q := rt.MustCompile(src, QaCPlus)
		ex := q.Explain()
		if len(ex.Targets) != 1 || ex.Targets[0].Span == "" || !strings.Contains(ex.Targets[0].String(), " span=?[") {
			t.Fatalf("%s: targets %v, want one tsid-index path with its bound", src, ex.Targets)
		}
		if v := ex.Targets[0].Versions; v >= 720 {
			t.Errorf("%s: predicted %d versions of 720: the window narrows nothing", src, v)
		}
		if _, err := q.Eval(last); err != nil {
			t.Fatal(err)
		}
		p, o := ex.Predicted, q.LastStats()
		if p.FillersScanned != o.FillersScanned || p.TSIDLookups != o.TSIDLookups || p.TSIDIndexHits != o.TSIDIndexHits {
			t.Errorf("%s: predicted %s, observed %s", src, statsLine(p), statsLine(o))
		}
	}
}
