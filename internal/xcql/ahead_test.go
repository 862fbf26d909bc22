package xcql

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/xmark"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// reannouncedCredit is the credit stream of one account charged twice, as
// a publisher sends it: three versions of the account, announcing the
// transaction holes {}, {t1} and {t1, t2}, and the two transactions, of 100
// and 200. It returns the instant after the last charge.
func reannouncedCredit(t testing.TB) (*Runtime, time.Time) {
	t.Helper()
	s, err := tagstruct.ParseString(genstore.CreditStructure)
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(s)
	pub, initial := genstore.NewCreditPublisher(1)
	frags := initial
	for i, amount := range []int{100, 200} {
		announce, tx := pub.Charge(0, amount, genstore.CreditBase.Add(time.Duration(i+1)*time.Hour))
		frags = append(frags, announce, tx)
	}
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	rt.RegisterStream("credit", st)
	return rt, genstore.CreditBase.Add(3 * time.Hour)
}

// aheadCases are per-binding child reads over the re-announced account:
// each version's positions count within the version, though the versions
// share their transactions. want is the result's string values and, per
// index plan, the evaluation's counters, pinned from the engine that made
// one read per binding.
var aheadCases = []struct {
	name, src string
	want      string
}{
	{
		name: "first",
		src:  `for $a in stream("credit")/creditAccounts/account return $a/transaction[1]/amount`,
		want: "[100 100]",
	},
	{
		name: "last",
		src:  `for $a in stream("credit")/creditAccounts/account return $a/transaction[last()]/amount`,
		want: "[100 200]",
	},
	{
		name: "whole",
		src:  `for $a in stream("credit")/creditAccounts/account return $a/transaction/amount`,
		want: "[100 100 200]",
	},
	{
		name: "pushed filter",
		src:  `for $a in stream("credit")/creditAccounts/account return $a/transaction[amount > 50][1]/amount`,
		want: "[100 100]",
	},
	{
		name: "position after a predicate",
		src:  `for $a in stream("credit")/creditAccounts/account return $a/transaction[position() = last()][amount > 150]/amount`,
		want: "[200]",
	},
	{
		name: "where drops tuples",
		src:  `for $a in stream("credit")/creditAccounts/account where count($a/transaction) = 2 return $a/transaction[1]/amount`,
		want: "[100]",
	},
	{
		name: "order by",
		src:  `for $a in stream("credit")/creditAccounts/account order by count($a/transaction) descending return $a/transaction[last()]/amount`,
		want: "[200 100]",
	},
	{
		name: "at",
		src:  `for $a at $i in stream("credit")/creditAccounts/account return ($i, $a/transaction[1]/amount)`,
		want: "[1 2 100 3 100]",
	},
	{
		name: "nested",
		src:  `for $a in stream("credit")/creditAccounts/account return for $t in $a/transaction return ($t/amount, count($a/transaction))`,
		want: "[100 1 100 2 200 2]",
	},
	{
		name: "mixed sequence",
		src:  `for $x in (stream("credit")/creditAccounts/account, 7, "seven") return $x/transaction[1]/amount`,
		want: "[100 100]",
	},
}

// TestReadAheadPerBinding holds a for clause's one read of every binding's
// children to what a read per binding returned and charged: results equal
// to QaC's, which reads per binding, and counters equal to the pinned ones.
// A read that merged the bindings' hole ids — the versions share theirs —
// would number t2 first in the last version.
func TestReadAheadPerBinding(t *testing.T) {
	rt, at := reannouncedCredit(t)
	for _, tc := range aheadCases {
		t.Run(tc.name, func(t *testing.T) {
			oracle := evalRendered(t, rt, tc.src, QaC, at)
			got := evalRendered(t, rt, tc.src, QaCPlus, at)
			if got.items != oracle.items {
				t.Errorf("%s, QaC %s", got.items, oracle.items)
			}
			if got.values != tc.want {
				t.Errorf("%s, want %s", got.values, tc.want)
			}
			if want := aheadStats[tc.name+"/QaC+"]; got.stats != want {
				t.Errorf("stats %s, pinned %s", got.stats, want)
			}
		})
	}
}

// TestReadAheadQ2 pins the counters of XMark Q2, whose bidder[1] the read
// ahead reads for every open auction at once.
func TestReadAheadQ2(t *testing.T) {
	xrt := xmarkRuntime(t)
	oracle := evalRendered(t, xrt, xmark.QueryQ2(), QaC, evalAt)
	got := evalRendered(t, xrt, xmark.QueryQ2(), QaCPlus, evalAt)
	if got.items != oracle.items {
		t.Error("Q2: result differs from QaC's")
	}
	if want := aheadStats["Q2/QaC+"]; got.stats != want {
		t.Errorf("Q2: stats %s, pinned %s", got.stats, want)
	}
}

// xmarkRuntime serves the XMark auction stream at sf=0.02, the ad-hoc
// workloads' scale.
func xmarkRuntime(t testing.TB) *Runtime {
	t.Helper()
	s, frags, _ := xmark.GenerateFragments(xmark.Config{Scale: 0.02, Seed: 1})
	st := fragment.NewStore(s)
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	rt := NewRuntime()
	rt.RegisterStream("auction", st)
	return rt
}

// aheadStats are the counters of the cases above, pinned from the engine
// that read every binding's children with a call of its own. nodes counts
// the tops built: none for a read whose tops nothing observes (Intrinsic.Bare).
var aheadStats = map[string]string{
	"first/QaC+":                      "fillers=7 holes=4 nodes=1 steps=25 items=13 bytes=1819",
	"last/QaC+":                       "fillers=7 holes=4 nodes=1 steps=25 items=13 bytes=1819",
	"whole/QaC+":                      "fillers=7 holes=4 nodes=1 steps=22 items=16 bytes=2186",
	"pushed filter/QaC+":              "fillers=7 holes=4 nodes=1 steps=30 items=13 bytes=1819",
	"position after a predicate/QaC+": "fillers=7 holes=4 nodes=4 steps=40 items=12 bytes=1452",
	"where drops tuples/QaC+":         "fillers=9 holes=6 nodes=4 steps=34 items=11 bytes=2553",
	"order by/QaC+":                   "fillers=10 holes=7 nodes=4 steps=40 items=16 bytes=2920",
	"at/QaC+":                         "fillers=7 holes=4 nodes=1 steps=31 items=21 bytes=1819",
	"nested/QaC+":                     "fillers=12 holes=9 nodes=6 steps=46 items=39 bytes=4021",
	"mixed sequence/QaC+":             "fillers=7 holes=4 nodes=4 steps=40 items=20 bytes=1819",
	"Q2/QaC+":                         "fillers=911 holes=930 nodes=224 steps=1568 items=1340 bytes=646911",
}

type rendered struct{ items, values, stats string }

// evalRendered evaluates src under mode and renders its result — as
// serialized items and as string values — and the counters a read charges.
func evalRendered(t *testing.T, rt *Runtime, src string, mode Mode, at time.Time) rendered {
	t.Helper()
	q, err := rt.Compile(src, mode)
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	seq, err := q.Eval(at)
	if err != nil {
		t.Fatalf("%s: %v", mode, err)
	}
	var items strings.Builder
	values := make([]string, len(seq))
	for i, it := range seq {
		if n, ok := it.(*xmldom.Node); ok {
			items.WriteString(n.String())
		} else {
			items.WriteString(xq.StringValue(it))
		}
		items.WriteByte('\n')
		values[i] = xq.StringValue(it)
	}
	return rendered{items.String(), fmt.Sprint(values), readStats(q.LastStats())}
}

// readStats spells what an evaluation's reads charged.
func readStats(s obs.EvalStats) string {
	return fmt.Sprintf("fillers=%d holes=%d nodes=%d steps=%d items=%d bytes=%d",
		s.FillersScanned, s.HolesResolved, s.NodesConstructed, s.Steps, s.Items, s.BytesMaterialized)
}

// TestFillersMixedInput: a child step whose input mixes materialized nodes
// — an interval projection's output, its children inline — with nodes that
// hold the children's holes reads the holes as one set, each id once, and
// puts each node's children where the node stands. The values and counters
// are pinned from the engine that read each run of holed nodes between
// materialized ones with a call of its own; the plans part from CaQ on
// these inputs (ROADMAP item 2), not from each other.
func TestFillersMixedInput(t *testing.T) {
	rt, at := reannouncedCredit(t)
	projected := `stream("credit")/creditAccounts/account[last()]?[2000-01-01T00:00:00,now]`
	accounts := `stream("credit")/creditAccounts/account`
	for _, tc := range []struct{ src, values, stats string }{
		{`for $t in (` + accounts + `, ` + projected + `, ` + accounts + `)/transaction return string($t/amount)`,
			"[100 200 100 200 100 200 100 200 100 200 100 200]", "fillers=48 holes=21 nodes=42 steps=125 items=120 bytes=14445"},
		{`for $t in (` + projected + `, ` + accounts + `, ` + projected + `)/transaction return string($t/amount)`,
			"[100 200 100 200 100 200 100 200 100 200 100 200 100 200 100 200 100 200]", "fillers=54 holes=27 nodes=42 steps=164 items=147 bytes=16923"},
		{`for $t in (` + projected + `, ` + accounts + `)/transaction[1] return string($t/amount)`,
			"[100]", "fillers=24 holes=12 nodes=20 steps=60 items=45 bytes=7460"},
		{`for $t in (` + accounts + `, ` + projected + `)/transaction[last()] return string($t/amount)`,
			"[200]", "fillers=24 holes=12 nodes=20 steps=60 items=45 bytes=7460"},
	} {
		qac := evalRendered(t, rt, tc.src, QaC, at)
		got := evalRendered(t, rt, tc.src, QaCPlus, at)
		if got.items != qac.items || got.values != tc.values || got.stats != tc.stats {
			t.Errorf("%s: QaC+ %s, %s; pinned %s, %s (QaC %s)", tc.src, got.values, got.stats, tc.values, tc.stats, qac.values)
		}
	}
}
