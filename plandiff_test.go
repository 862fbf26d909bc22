package xcql_test

import (
	"strings"
	"testing"

	"xcql"
	"xcql/internal/evalbench"
)

// runCorpus evaluates every corpus query under all three plans on one
// dataset and fails on any cross-plan difference.
func runCorpus(t *testing.T, ds *evalbench.Dataset) {
	t.Helper()
	for _, qc := range evalbench.Corpus() {
		results := make(map[xcql.Mode]string, len(evalbench.Modes))
		for _, mode := range evalbench.Modes {
			q, err := ds.Runtime.Compile(qc.Src, mode)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", qc.Name, mode, err)
			}
			seq, err := q.Eval(evalbench.EvalInstant)
			if err != nil {
				t.Fatalf("%s/%s: eval: %v", qc.Name, mode, err)
			}
			results[mode] = xcql.FormatSequence(seq)
		}
		base := results[xcql.CaQ]
		for _, mode := range evalbench.Modes {
			if results[mode] != base {
				t.Errorf("%s: %s result differs from CaQ\nCaQ:\n%s\n%s:\n%s",
					qc.Name, mode, truncate(base), mode, truncate(results[mode]))
			}
		}
	}
}

func truncate(s string) string {
	const max = 800
	if len(s) > max {
		return s[:max] + "…"
	}
	return s
}

// TestPlanEquivalenceIndexed runs the corpus against the production
// indexed store at the larger quick scale.
func TestPlanEquivalenceIndexed(t *testing.T) {
	ds, err := evalbench.Build(0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	runCorpus(t, ds)
}

// TestPlanEquivalenceScan runs the corpus against the paper's scan-cost
// store: the access paths differ wildly (per-hole passes vs batched
// passes vs whole-log reconstruction), the results must not.
func TestPlanEquivalenceScan(t *testing.T) {
	if testing.Short() {
		t.Skip("scan store corpus is slow in -short mode")
	}
	ds, err := evalbench.Build(0.005, true)
	if err != nil {
		t.Fatal(err)
	}
	runCorpus(t, ds)
}

// TestPositionalPlanAgreement: a child step's positional predicates count
// within each parent — how the evaluator applies a step's predicates, and
// so how CaQ does — under every plan, read window or not. Before PR 21 the
// fragment plans wrapped the whole crossing in one Filter and counted
// across parents: bidder[1] gave 1 where CaQ gives 240, [position() <= 2]
// 2 where CaQ gives 445. A descendant step numbers its matches across the
// whole stream under every plan, and is left so.
func TestPositionalPlanAgreement(t *testing.T) {
	ds, err := evalbench.Build(0.02, false)
	if err != nil {
		t.Fatal(err)
	}
	const auctions = `stream("auction")/site/open_auctions/open_auction`
	for _, c := range []struct {
		step   string
		window bool // the read serves the first positional predicate
		count  int  // CaQ's count, when pinned
	}{
		{"/bidder[1]", true, 240},
		{"/bidder[2]", true, 0},
		{"/bidder[last()]", true, 0},
		{"/bidder[position() <= 2]", true, 445},
		{"/bidder[increase >= 10][1]", true, 0},
		{"/bidder[1][increase > 10]", true, 0},
		{"/bidder[position() = 2]", false, 0},
		{"/initial[1]", false, 0}, // inline: the step keeps its predicates
		{`stream("auction")//bidder[1]`, false, 1},
	} {
		src := c.step
		if strings.HasPrefix(src, "/") {
			src = auctions + src
		}
		var want string
		for _, mode := range harnessModes { // CaQ first
			q, err := ds.Runtime.Compile(src, mode)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", src, mode, err)
			}
			seq, err := q.Eval(evalbench.EvalInstant)
			if err != nil {
				t.Fatalf("%s/%s: eval: %v", src, mode, err)
			}
			got := xcql.FormatSequence(seq)
			if mode == xcql.CaQ {
				want = got
				if c.count > 0 && len(seq) != c.count {
					t.Errorf("%s: CaQ returns %d items, want %d", src, len(seq), c.count)
				}
				t.Logf("%s: %d items", src, len(seq))
				continue
			}
			if got != want {
				t.Errorf("%s: %s differs from CaQ\nCaQ:\n%s\n%s:\n%s", src, mode, truncate(want), mode, truncate(got))
			}
			windowed := false
			for _, tgt := range q.Explain().Targets {
				windowed = windowed || strings.HasPrefix(tgt.PerParent, "window")
			}
			if windowed != c.window {
				t.Errorf("%s/%s: read window %v, want %v\n%s", src, mode, windowed, c.window, q.Explain())
			}
		}
	}
}

// A number selects the item whose position it equals, so a fractional one
// selects no bidder, under every plan — the per-parent list the fragment
// plans hang on the fillers call included, which no read window serves.
// bidder[1.5] returned each auction's first bidder while the position was
// truncated.
func TestFractionalPositionPerParent(t *testing.T) {
	ds, err := evalbench.Build(0.02, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, pred := range []string{"1.5", "2.9"} {
		src := `for $b in stream("auction")/site/open_auctions/open_auction return $b/bidder[` + pred + `]`
		for _, mode := range harnessModes {
			q, err := ds.Runtime.Compile(src, mode)
			if err != nil {
				t.Fatalf("%s/%s: compile: %v", src, mode, err)
			}
			seq, err := q.Eval(evalbench.EvalInstant)
			if err != nil {
				t.Fatalf("%s/%s: eval: %v", src, mode, err)
			}
			if len(seq) != 0 {
				t.Errorf("%s/%s: %d bidders, want none", src, mode, len(seq))
			}
			if mode == xcql.CaQ {
				continue
			}
			perParent := false
			for _, tgt := range q.Explain().Targets {
				perParent = perParent || tgt.PerParent != ""
			}
			if !perParent {
				t.Errorf("%s/%s: no per-parent list on the read\n%s", src, mode, q.Explain())
			}
		}
	}
}

// TestPlanEquivalenceEmptyScale covers the degenerate scale-0 dataset
// (the paper's 116KB base document, no update history).
func TestPlanEquivalenceEmptyScale(t *testing.T) {
	ds, err := evalbench.Build(0, false)
	if err != nil {
		t.Fatal(err)
	}
	runCorpus(t, ds)
}
