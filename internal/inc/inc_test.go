package inc

import (
	"fmt"
	"testing"
	"time"

	"xcql/internal/evalbench"
	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
)

// corpus mirrors the plan-diff corpus of /plandiff_test.go: the Figure-4
// queries plus child, descendant, count, version and interval queries
// over every fragmented tag of the XMark structure.
func corpus() []struct{ name, src string } {
	var out []struct{ name, src string }
	for _, q := range evalbench.Queries() {
		out = append(out, struct{ name, src string }{q.Name, q.Src})
	}
	targets := []struct{ tag, path, child string }{
		{"person", `/site/people/person`, "name"},
		{"category", `/site/categories/category`, "name"},
		{"open_auction", `/site/open_auctions/open_auction`, "reserve"},
		{"closed_auction", `/site/closed_auctions/closed_auction`, "price"},
	}
	for _, tg := range targets {
		for _, q := range []struct{ kind, src string }{
			{"child", `for $x in stream("auction")%[2]s return $x/%[3]s`},
			{"descendant", `for $x in stream("auction")//%[1]s return $x/%[3]s`},
			{"descendant-bare", `stream("auction")//%[1]s`},
			{"count", `count(for $x in stream("auction")%[2]s return $x)`},
			{"count-descendant", `count(stream("auction")//%[1]s)`},
			{"version", `for $x in stream("auction")%[2]s#[1,last] return $x/%[3]s`},
			{"interval-all", `for $x in stream("auction")%[2]s?[start,now] return $x/%[3]s`},
			{"interval-year", `for $x in stream("auction")%[2]s?[2003-01-01,2004-01-01] return $x/%[3]s`},
			{"interval-descendant", `stream("auction")//%[1]s?[2003-01-01,2004-01-01]`},
		} {
			out = append(out, struct{ name, src string }{
				q.kind + "-" + tg.tag, fmt.Sprintf(q.src, tg.tag, tg.path, tg.child),
			})
		}
	}
	return out
}

const itemWire = `<stream:structure>
<tag type="snapshot" id="1" name="items">
  <tag type="temporal" id="2" name="item"/>
</tag>
</stream:structure>`

// itemRuntime holds one stream whose tsid 2 is a single filler (id 1)
// with three versions and no holes of its own: a by-tsid fetch of it
// reads exactly the versions an incremental unit's filler read does.
func itemRuntime(t *testing.T, scan bool) (*xcql.Runtime, *fragment.Store) {
	t.Helper()
	s, err := tagstruct.ParseString(itemWire)
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(s)
	if scan {
		st = fragment.NewScanStore(s)
	}
	day := func(d int) time.Time { return time.Date(2003, 1, d, 0, 0, 0, 0, time.UTC) }
	frags := []*fragment.Fragment{
		fragment.New(fragment.RootFillerID, 1, day(1), xmldom.MustParseString(`<items><hole id="1" tsid="2"/></items>`).Root()),
	}
	for d := 2; d <= 4; d++ {
		frags = append(frags, fragment.New(1, 2, day(d), xmldom.MustParseString(fmt.Sprintf(`<item>v%d</item>`, d)).Root()))
	}
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("items", st)
	return rt, st
}

// TestEvalUnitChargesLikeFullEvaluation: an indexed unit's filler read is
// charged the way a full evaluation of the same plan charges the same
// fetch — a lookup pass (FillersScanned) and nothing else under QaC+ — on
// an indexed and on a scan store, and its budget meters the items and
// bytes the fetch meters.
// The full evaluation is the by-tsid fetch alone: a whole-stream
// descendant step never reads the root.
func TestEvalUnitChargesLikeFullEvaluation(t *testing.T) {
	at := time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC)
	for _, scan := range []bool{false, true} {
		rt, st := itemRuntime(t, scan)
		mode := xcql.QaCPlus
		name := fmt.Sprintf("scan=%v/%s", scan, mode)
		q := rt.MustCompile(`stream("items")//item`, mode)
		if _, err := q.Eval(at); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		full := q.LastStats()

		e := New(q)
		if len(e.pieces) != 1 || !e.pieces[0].indexed() {
			t.Fatalf("%s: plan did not decompose to one indexed piece: %s", name, e.Strategy())
		}
		unit := &obs.EvalStats{}
		res, err := e.evalUnit(unitKey{piece: 0, arg: 0, fid: 1}, at, xcql.Limits{}, unit)
		if err != nil {
			t.Fatal(err)
		}
		if res.count != 3 || len(res.entries) != 3 {
			t.Fatalf("%s: unit returned %d versions, want 3", name, res.count)
		}
		type charge struct{ fillers, holes, items, bytes int64 }
		got := charge{unit.FillersScanned, unit.HolesResolved, unit.Items, unit.BytesMaterialized}
		want := charge{full.FillersScanned, full.HolesResolved, full.Items, full.BytesMaterialized}
		if got != want {
			t.Errorf("%s: unit charged %+v, the full evaluation's fetch %+v", name, got, want)
		}
		// the budget meters the read as it meters the full evaluation's
		got.items, got.bytes = 0, 0
		if got != (charge{fillers: int64(st.PassCost(1, 3))}) {
			t.Errorf("%s: unit charged %+v, want one lookup pass only", name, got)
		}
	}
}

// evalUnit computes one unit's current output and horizon from scratch:
// every version of an indexed unit runs.
func (e *Engine) evalUnit(k unitKey, at time.Time, lim xcql.Limits, stats *obs.EvalStats) (unitResult, error) {
	return e.reevalUnit(k, nil, at, lim, stats)
}
