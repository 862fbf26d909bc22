package xcql

import (
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// twinWire has one fragmented tag name, x, under two parents: a descendant
// step to it from the top is a jump to two tsids.
const twinWire = `<stream:structure>
<tag type="snapshot" id="1" name="r">
  <tag type="temporal" id="2" name="a">
    <tag type="event" id="4" name="x"/>
  </tag>
  <tag type="temporal" id="3" name="b">
    <tag type="event" id="5" name="x"/>
  </tag>
</tag>
</stream:structure>`

// twinStore is a twinWire stream: one a holding two x, one b holding
// three.
func twinStore(t testing.TB) *fragment.Store {
	t.Helper()
	st := fragment.NewStore(tagstruct.MustParseString(twinWire))
	for _, f := range []struct {
		fid, tsid int
		xml       string
	}{
		{fragment.RootFillerID, 1, `<r><hole id="1" tsid="2"/><hole id="2" tsid="3"/></r>`},
		{1, 2, `<a><hole id="10" tsid="4"/><hole id="11" tsid="4"/></a>`},
		{2, 3, `<b><hole id="20" tsid="5"/><hole id="21" tsid="5"/><hole id="22" tsid="5"/></b>`},
		{10, 4, `<x>1</x>`}, {11, 4, `<x>2</x>`},
		{20, 5, `<x>3</x>`}, {21, 5, `<x>4</x>`}, {22, 5, `<x>5</x>`},
	} {
		if err := st.Add(fragment.New(f.fid, f.tsid, ts("2003-01-01T00:00:00"), xmldom.MustParseString(f.xml).Root())); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestPlanText pins the translated plan as Query.Plan.String() renders it,
// under both fragment plans, for every shape an access call carries: a
// pushed filter beside a per-parent list, a windowed [last()] list with
// the rest of its predicates, a windowed list on a read of bare tops, a where pushed below a jump whose tops
// nothing observes, a jump to two tsids, and both projections. The
// rendering is what EXPLAIN prints and what the incremental engine's unit
// signatures are built from.
func TestPlanText(t *testing.T) {
	rt := newRuntime(t)
	rt.RegisterStream("s", twinStore(t))
	for _, c := range []struct {
		src       string
		qac, qacp string
	}{
		{
			`stream("credit")/creditAccounts/account/transaction[amount > 100][1]`,
			`xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 5, [amount > 100], per-parent:window[1])`,
			`xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 5, [amount > 100], per-parent:window[1])`,
		},
		{
			`stream("credit")/creditAccounts/account/transaction[last()][amount > 100]`,
			`xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 5, per-parent:window[last()][(amount > 100)])`,
			`xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 5, per-parent:window[last()][(amount > 100)])`,
		},
		{
			`for $t in stream("credit")//transaction where $t/amount >= 1200 return $t/vendor`,
			`for $t in xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 5, [amount >= 1200], tops=bare) return $t/vendor`,
			`for $t in xcql:bytsid("credit", 5, [amount >= 1200], tops=bare) return $t/vendor`,
		},
		{
			`count(stream("s")//x)`,
			`count((xcql:fillers(xcql:fillers(xcql:root("s")/r, "s", 2, tops=bare), "s", 4), xcql:fillers(xcql:fillers(xcql:root("s")/r, "s", 3, tops=bare), "s", 5)))`,
			`count(xcql:bytsid("s", 4, 5))`,
		},
		{
			`stream("credit")//transaction?[2003-11-01T00:00:00,now]`,
			`xcql:iproj(xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 5), 2003-11-01T00:00:00, now, "credit")`,
			`xcql:iproj(xcql:bytsid("credit", 5), 2003-11-01T00:00:00, now, "credit")`,
		},
		{
			`stream("credit")//creditLimit#[1,last]`,
			`xcql:vproj(xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 4), 1, "last", "credit")`,
			`xcql:vproj(xcql:bytsid("credit", 4), 1, "last", "credit")`,
		},
		{
			`stream("credit")/creditAccounts/account/transaction[1]/amount`,
			`xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 5, per-parent:window[1], tops=bare)/amount`,
			`xcql:fillers(xcql:fillers(xcql:root("credit")/creditAccounts, "credit", 2, tops=bare), "credit", 5, per-parent:window[1], tops=bare)/amount`,
		},
	} {
		for _, m := range []struct {
			mode Mode
			want string
		}{{QaC, c.qac}, {QaCPlus, c.qacp}} {
			if got := rt.MustCompile(c.src, m.mode).Plan.String(); got != m.want {
				t.Errorf("%s under %s:\n got %s\nwant %s", c.src, m.mode, got, m.want)
			}
		}
	}
}
