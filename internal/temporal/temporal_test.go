package temporal

import (
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

const creditWire = `<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="customer"/>
    <tag type="temporal" id="4" name="creditLimit"/>
    <tag type="event" id="5" name="transaction">
      <tag type="snapshot" id="6" name="vendor"/>
      <tag type="temporal" id="7" name="status"/>
      <tag type="snapshot" id="8" name="amount"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

const creditDoc = `<creditAccounts>
  <account id="1234" vtFrom="1998-10-10T12:20:22" vtTo="now">
    <customer>John Smith</customer>
    <creditLimit vtFrom="1998-10-10T12:20:22" vtTo="2001-04-23T23:11:08">2000</creditLimit>
    <creditLimit vtFrom="2001-04-23T23:11:08" vtTo="now">5000</creditLimit>
    <transaction id="12345" vtFrom="2003-10-23T12:23:34" vtTo="2003-10-23T12:23:34">
      <vendor>Southlake Pizza</vendor>
      <amount>38.20</amount>
      <status vtFrom="2003-10-23T12:24:35" vtTo="now">charged</status>
    </transaction>
  </account>
</creditAccounts>`

func ts(s string) time.Time {
	t, err := time.Parse(xtime.Layout, s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

var evalAt = ts("2003-11-15T12:00:00")

// storeResolver crosses st's holes at evalAt through an uncounted log scan.
func storeResolver(st *fragment.Store) HoleResolver {
	acc := fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: evalAt})
	return func(holeID int) []*xmldom.Node {
		els, _ := acc.Read(st, fragment.Read{Source: fragment.FromHole, ID: holeID})
		return els
	}
}

func creditStore(t *testing.T) *fragment.Store {
	t.Helper()
	s, err := tagstruct.ParseString(creditWire)
	if err != nil {
		t.Fatal(err)
	}
	fr := fragment.NewFragmenter(s)
	fr.CoalesceVersions = true
	frags, err := fr.Fragment(xmldom.MustParseString(creditDoc))
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(s)
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestTemporalizeShape(t *testing.T) {
	st := creditStore(t)
	view, err := Temporalize(st, evalAt)
	if err != nil {
		t.Fatal(err)
	}
	if view.Name != "creditAccounts" {
		t.Fatalf("root = %q", view.Name)
	}
	accounts := view.ChildElements("account")
	if len(accounts) != 1 {
		t.Fatalf("accounts = %d", len(accounts))
	}
	acct := accounts[0]
	if from, _ := acct.Attr("vtFrom"); from != "1998-10-10T12:20:22" {
		t.Fatalf("account vtFrom = %q", from)
	}
	if to, _ := acct.Attr("vtTo"); to != "now" {
		t.Fatalf("account vtTo = %q", to)
	}
	limits := acct.ChildElements("creditLimit")
	if len(limits) != 2 {
		t.Fatalf("creditLimit versions = %d", len(limits))
	}
	if to, _ := limits[0].Attr("vtTo"); to != "2001-04-23T23:11:08" {
		t.Fatalf("limit v1 vtTo = %q (should chain to v2's validTime)", to)
	}
	if limits[0].TrimmedText() != "2000" || limits[1].TrimmedText() != "5000" {
		t.Fatal("limit values wrong")
	}
	txs := acct.ChildElements("transaction")
	if len(txs) != 1 {
		t.Fatalf("transactions = %d", len(txs))
	}
	from, _ := txs[0].Attr("vtFrom")
	to, _ := txs[0].Attr("vtTo")
	if from != to || from != "2003-10-23T12:23:34" {
		t.Fatalf("event lifespan = [%s,%s]", from, to)
	}
	status := txs[0].ChildElements("status")
	if len(status) != 1 || status[0].TrimmedText() != "charged" {
		t.Fatal("nested status missing")
	}
	// holes must all be resolved
	if len(view.Descendants("hole")) != 0 {
		t.Fatal("unresolved holes in materialized view")
	}
}

func TestTemporalizeWithoutRootErrors(t *testing.T) {
	s, _ := tagstruct.ParseString(creditWire)
	st := fragment.NewStore(s)
	if _, err := Temporalize(st, evalAt); err == nil {
		t.Fatal("expected error with empty store")
	}
}

// storedNodes lists every node of every stored payload, preorder, with
// the payloads' serialization: what reads must leave exactly as it was.
func storedNodes(st *fragment.Store) (nodes []*xmldom.Node, serial string) {
	for _, id := range st.FillerIDs() {
		for _, f := range st.Versions(id) {
			serial += f.Payload.String()
			f.Payload.Walk(func(n *xmldom.Node) bool {
				nodes = append(nodes, n)
				return true
			})
		}
	}
	return nodes, serial
}

// TestReadsShareTheStoreAndLeaveItAlone: the reconstruction and the
// projections hand out the store's own hole-free subtrees — rebuilding
// only the spine above a hole or a clipped lifespan — and write none of
// them: a walk that spliced fillers into the child lists it was handed
// would, with shared lists, overwrite the store.
func TestReadsShareTheStoreAndLeaveItAlone(t *testing.T) {
	st := creditStore(t)
	before, serial := storedNodes(st)
	check := func(step string) {
		t.Helper()
		after, got := storedNodes(st)
		if got != serial {
			t.Fatalf("%s changed a stored payload:\nwas: %s\nnow: %s", step, serial, got)
		}
		if len(after) != len(before) {
			t.Fatalf("%s re-linked stored nodes: %d nodes, had %d", step, len(after), len(before))
		}
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%s re-linked stored node %d", step, i)
			}
		}
	}
	stored := make(map[*xmldom.Node]bool, len(before))
	for _, n := range before {
		stored[n] = true
	}

	view, err := Temporalize(st, evalAt)
	if err != nil {
		t.Fatal(err)
	}
	check("Temporalize")
	// the vendor element sits in a transaction filler with a hole beside
	// it: the filler's top is rebuilt, the vendor is the store's
	if vendor := view.Descendants("vendor"); len(vendor) != 1 || !stored[vendor[0]] {
		t.Error("the view copied a hole-free stored subtree")
	}
	if stored[view] || stored[view.ChildElements("account")[0]] {
		t.Error("the view reused a stored element that has holes below it")
	}

	acct := view.ChildElements("account")[0]
	limits := acct.ChildElements("creditLimit")
	// a window covering every lifespan changes nothing: the inputs come back
	all := IntervalProjection(limits, xtime.Lifetime(), evalAt, nil, nil)
	if len(all) != len(limits) || all[0] != limits[0] || all[1] != limits[1] {
		t.Error("a projection that clips nothing should return its inputs as they are")
	}
	// clipping one creditLimit rebuilds the account above it and shares
	// the untouched customer below it
	window := xtime.NewInterval(xtime.MustParse("1999-01-01T00:00:00"), xtime.MustParse("2000-01-01T00:00:00"))
	out := IntervalProjection([]*xmldom.Node{acct}, window, evalAt, nil, nil)
	if len(out) != 1 || out[0] == acct {
		t.Fatal("clipped account should be a rebuilt element")
	}
	if out[0].FirstChildElement("customer") != acct.FirstChildElement("customer") {
		t.Error("unclipped sibling was copied, not shared")
	}
	IntervalProjection([]*xmldom.Node{st.Root().Payload}, window, evalAt, nil, storeResolver(st))
	VersionProjection(storeResolver(st)(1), xtime.VersionInterval{From: 1, ToLast: true}, evalAt, nil, storeResolver(st))
	check("projection across holes")
}

func TestDerivedLifespan(t *testing.T) {
	el := xmldom.MustParseString(`<p>
	  <a vtFrom="2003-02-01T00:00:00" vtTo="2003-03-01T00:00:00"/>
	  <b vtFrom="2003-01-01T00:00:00" vtTo="2003-02-01T00:00:00"/>
	</p>`).Root()
	life := DerivedLifespan(el, evalAt, nil)
	if life.From.String() != "2003-01-01T00:00:00" || life.To.String() != "2003-03-01T00:00:00" {
		t.Fatalf("derived = %v", life)
	}
	leaf := xmldom.NewElement("leaf")
	if got := DerivedLifespan(leaf, evalAt, nil); got.String() != "[start,now]" {
		t.Fatalf("leaf lifespan = %v", got)
	}
	annotated := xmldom.MustParseString(`<x vtFrom="2003-05-01T00:00:00" vtTo="now"><y vtFrom="2001-01-01T00:00:00" vtTo="2002-01-01T00:00:00"/></x>`).Root()
	if got := DerivedLifespan(annotated, evalAt, nil); got.From.String() != "2003-05-01T00:00:00" {
		t.Fatalf("own annotation should win: %v", got)
	}
}

func TestIntervalProjectionFiltersAndClips(t *testing.T) {
	st := creditStore(t)
	view, _ := Temporalize(st, evalAt)
	acct := view.ChildElements("account")[0]
	limits := acct.ChildElements("creditLimit")

	// window overlapping only the first limit
	window := xtime.NewInterval(xtime.MustParse("1999-01-01T00:00:00"), xtime.MustParse("2000-01-01T00:00:00"))
	out := IntervalProjection(limits, window, evalAt, nil, nil)
	if len(out) != 1 || out[0].TrimmedText() != "2000" {
		t.Fatalf("projection kept %d elements", len(out))
	}
	// and clipped the lifespan to the window
	from, _ := out[0].Attr("vtFrom")
	to, _ := out[0].Attr("vtTo")
	if from != "1999-01-01T00:00:00" || to != "2000-01-01T00:00:00" {
		t.Fatalf("clip = [%s,%s]", from, to)
	}
	// inputs untouched
	if f, _ := limits[0].Attr("vtFrom"); f != "1998-10-10T12:20:22" {
		t.Fatal("input mutated")
	}
}

func TestIntervalProjectionNowWindow(t *testing.T) {
	st := creditStore(t)
	view, _ := Temporalize(st, evalAt)
	acct := view.ChildElements("account")[0]
	limits := acct.ChildElements("creditLimit")
	nowWin := xtime.PointInterval(xtime.Now())
	out := IntervalProjection(limits, nowWin, evalAt, nil, nil)
	if len(out) != 1 || out[0].TrimmedText() != "5000" {
		t.Fatalf("?[now] = %v", texts(out))
	}
}

func TestIntervalProjectionRecursesIntoChildren(t *testing.T) {
	st := creditStore(t)
	view, _ := Temporalize(st, evalAt)
	acct := view.ChildElements("account")[0]
	// project the whole account to a window before the transaction: the
	// transaction child must disappear while customer (snapshot) stays.
	window := xtime.NewInterval(xtime.MustParse("1999-01-01T00:00:00"), xtime.MustParse("2000-01-01T00:00:00"))
	out := IntervalProjection([]*xmldom.Node{acct}, window, evalAt, nil, nil)
	if len(out) != 1 {
		t.Fatal("account dropped")
	}
	if len(out[0].ChildElements("transaction")) != 0 {
		t.Fatal("transaction outside window survived")
	}
	if out[0].FirstChildElement("customer") == nil {
		t.Fatal("snapshot child dropped")
	}
}

func TestIntervalProjectionResolvesHoles(t *testing.T) {
	st := creditStore(t)
	// project directly over the raw root fragment, crossing holes
	root := st.Root().Payload
	window := xtime.NewInterval(xtime.MustParse("2003-10-01T00:00:00"), xtime.Now())
	out := IntervalProjection([]*xmldom.Node{root}, window, evalAt, nil, storeResolver(st))
	if len(out) != 1 {
		t.Fatal("root dropped")
	}
	accounts := out[0].ChildElements("account")
	if len(accounts) != 1 {
		t.Fatalf("hole not resolved: %s", out[0])
	}
	// the October transaction is inside the window
	if len(accounts[0].ChildElements("transaction")) != 1 {
		t.Fatal("transaction lost while crossing holes")
	}
	// the first creditLimit version (ends 2001) is outside
	if len(accounts[0].ChildElements("creditLimit")) != 1 {
		t.Fatal("old creditLimit version should be projected away")
	}
}

func TestIntervalProjectionEmptyWindow(t *testing.T) {
	st := creditStore(t)
	view, _ := Temporalize(st, evalAt)
	acct := view.ChildElements("account")[0]
	// inverted window: empty result for annotated elements
	window := xtime.NewInterval(xtime.MustParse("2005-01-01T00:00:00"), xtime.MustParse("2004-01-01T00:00:00"))
	out := IntervalProjection(acct.ChildElements("creditLimit"), window, evalAt, nil, nil)
	if len(out) != 0 {
		t.Fatalf("inverted window kept %d", len(out))
	}
}

func TestVersionProjection(t *testing.T) {
	st := creditStore(t)
	view, _ := Temporalize(st, evalAt)
	acct := view.ChildElements("account")[0]
	limits := acct.ChildElements("creditLimit")

	first := VersionProjection(limits, xtime.VersionPoint(1), evalAt, nil, nil)
	if len(first) != 1 || first[0].TrimmedText() != "2000" {
		t.Fatalf("#[1] = %v", texts(first))
	}
	last := VersionProjection(limits, xtime.LastVersion(), evalAt, nil, nil)
	if len(last) != 1 || last[0].TrimmedText() != "5000" {
		t.Fatalf("#[last] = %v", texts(last))
	}
	all := VersionProjection(limits, xtime.VersionInterval{From: 1, To: 10}, evalAt, nil, nil)
	if len(all) != 2 {
		t.Fatalf("#[1,10] = %d", len(all))
	}
	empty := VersionProjection(limits, xtime.VersionPoint(9), evalAt, nil, nil)
	if len(empty) != 0 {
		t.Fatal("out-of-range version kept something")
	}
}

func TestVersionProjectionSnapshotSingleVersion(t *testing.T) {
	el := xmldom.TextElem("customer", "John")
	out := VersionProjection([]*xmldom.Node{el}, xtime.VersionPoint(1), evalAt, nil, nil)
	if len(out) != 1 || out[0].TrimmedText() != "John" {
		t.Fatalf("snapshot #[1] = %v", texts(out))
	}
}

func TestVersionProjectionClipsChildrenToVersionLifespan(t *testing.T) {
	st := creditStore(t)
	view, _ := Temporalize(st, evalAt)
	acct := view.ChildElements("account")[0]
	// Selecting account version 1 must clip its children to the account's
	// lifespan (which covers everything here — so the transaction stays),
	// exercising the interval-projection composition.
	out := VersionProjection([]*xmldom.Node{acct}, xtime.VersionPoint(1), evalAt, nil, nil)
	if len(out) != 1 || len(out[0].ChildElements("transaction")) != 1 {
		t.Fatal("version projection lost children")
	}
}

func texts(els []*xmldom.Node) []string {
	var out []string
	for _, e := range els {
		out = append(out, e.TrimmedText())
	}
	return out
}
