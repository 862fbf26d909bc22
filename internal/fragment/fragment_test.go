package fragment

import (
	"slices"
	"strings"
	"testing"
	"time"

	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
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

func creditStruct(t *testing.T) *tagstruct.Structure {
	t.Helper()
	s, err := tagstruct.ParseString(creditWire)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ts(s string) time.Time {
	t, err := time.Parse("2006-01-02T15:04:05", s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

func TestFragmentWireRoundTrip(t *testing.T) {
	// filler 1 from §4.2 of the paper
	src := `<filler id="100" tsid="5" validTime="2003-10-23T12:23:34"><transaction id="12345"><vendor> Southlake Pizza </vendor><amount> 38.20 </amount><hole id="200" tsid="7"/></transaction></filler>`
	f, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if f.FillerID != 100 || f.TSID != 5 {
		t.Fatalf("ids: %+v", f)
	}
	if !f.ValidTime.Equal(ts("2003-10-23T12:23:34")) {
		t.Fatalf("validTime = %v", f.ValidTime)
	}
	if ids := HoleIDs(nil, f.Tree(), 0); len(ids) != 1 || ids[0] != 200 {
		t.Fatalf("holes = %v", ids)
	}
	back, err := Parse(f.String())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Tree().Equal(f.Tree()) {
		t.Fatal("payload changed on round trip")
	}
}

func TestFragmentParseErrors(t *testing.T) {
	cases := []string{
		`<notfiller/>`,
		`<filler tsid="5" validTime="2003-01-01T00:00:00"><a/></filler>`, // no id
		`<filler id="x" tsid="5" validTime="2003-01-01T00:00:00"><a/></filler>`,
		`<filler id="1" validTime="2003-01-01T00:00:00"><a/></filler>`,      // no tsid
		`<filler id="1" tsid="5"><a/></filler>`,                             // no validTime
		`<filler id="1" tsid="5" validTime="now"><a/></filler>`,             // symbolic validTime
		`<filler id="1" tsid="5" validTime="2003-01-01T00:00:00"></filler>`, // no payload
		`<filler id="1" tsid="5" validTime="2003-01-01T00:00:00"><a/><b/></filler>`,
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestHoleHelpers(t *testing.T) {
	h := NewHole(200, 7)
	if !IsHole(h) {
		t.Fatal("NewHole not a hole")
	}
	id, err := HoleID(h)
	if err != nil || id != 200 {
		t.Fatalf("HoleID = %d, %v", id, err)
	}
	if HoleTSID(h) != 7 {
		t.Fatal("HoleTSID")
	}
	el := xmldom.MustParseString(`<t><hole id="1" tsid="7"/><x/><hole id="2" tsid="4"/></t>`).Root()
	if got := HoleIDs(nil, el, 0); len(got) != 2 {
		t.Fatalf("all holes = %v", got)
	}
	if got := HoleIDs(nil, el, 4); len(got) != 1 || got[0] != 2 {
		t.Fatalf("tsid-filtered holes = %v", got)
	}
	if _, err := HoleID(xmldom.NewElement("x")); err == nil {
		t.Fatal("HoleID on non-hole should error")
	}
}

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

func fragmentCredit(t *testing.T) (*tagstruct.Structure, []*Fragment) {
	t.Helper()
	s := creditStruct(t)
	fr := NewFragmenter(s)
	fr.CoalesceVersions = true
	doc := xmldom.MustParseString(creditDoc)
	frags, err := fr.Fragment(doc)
	if err != nil {
		t.Fatal(err)
	}
	return s, frags
}

func TestFragmenterCutsAtTemporalAndEventTags(t *testing.T) {
	_, frags := fragmentCredit(t)
	// root + account + creditLimit(x2 sharing one id) + transaction + status
	if len(frags) != 6 {
		for _, f := range frags {
			t.Logf("  %s", f)
		}
		t.Fatalf("fragment count = %d, want 6", len(frags))
	}
	root := frags[0]
	if root.FillerID != RootFillerID || root.Payload.Name != "creditAccounts" {
		t.Fatalf("root = %s", root)
	}
	if holes := HoleIDs(nil, root.Payload, 0); len(holes) != 1 {
		t.Fatalf("root holes = %v", holes)
	}
	// the two creditLimit versions share one filler id
	var clIDs []int
	for _, f := range frags {
		if f.Payload.Name == "creditLimit" {
			clIDs = append(clIDs, f.FillerID)
		}
	}
	if len(clIDs) != 2 || clIDs[0] != clIDs[1] {
		t.Fatalf("creditLimit filler ids = %v (want a shared id)", clIDs)
	}
	// snapshot children stay inline
	for _, f := range frags {
		if f.Payload.Name == "transaction" {
			if f.Payload.FirstChildElement("vendor") == nil || f.Payload.FirstChildElement("amount") == nil {
				t.Fatalf("snapshot children not inline: %s", f)
			}
			if f.Payload.FirstChildElement("status") != nil {
				t.Fatal("temporal child not cut out")
			}
			if len(HoleIDs(nil, f.Payload, 7)) != 1 {
				t.Fatal("transaction should have one status hole")
			}
		}
	}
	// vtFrom/vtTo are stripped from payloads
	for _, f := range frags {
		if _, ok := f.Payload.Attr("vtFrom"); ok {
			t.Fatalf("payload kept vtFrom: %s", f)
		}
	}
}

func TestFragmenterValidTimeFromAnnotations(t *testing.T) {
	_, frags := fragmentCredit(t)
	for _, f := range frags {
		if f.Payload.Name == "transaction" && !f.ValidTime.Equal(ts("2003-10-23T12:23:34")) {
			t.Fatalf("transaction validTime = %v", f.ValidTime)
		}
	}
}

func TestFragmenterRejectsUnknownElement(t *testing.T) {
	s := creditStruct(t)
	fr := NewFragmenter(s)
	doc := xmldom.MustParseString(`<creditAccounts><bogus/></creditAccounts>`)
	if _, err := fr.Fragment(doc); err == nil {
		t.Fatal("unknown element accepted")
	}
	wrongRoot := xmldom.MustParseString(`<other/>`)
	if _, err := fr.Fragment(wrongRoot); err == nil {
		t.Fatal("wrong root accepted")
	}
}

func TestStoreAddValidation(t *testing.T) {
	s := creditStruct(t)
	st := NewStore(s)
	bad := []*Fragment{
		New(1, 99, ts("2003-01-01T00:00:00"), xmldom.NewElement("x")),          // unknown tsid
		New(1, 3, ts("2003-01-01T00:00:00"), xmldom.NewElement("customer")),    // snapshot tsid
		New(1, 4, ts("2003-01-01T00:00:00"), nil),                              // nil payload
		New(1, 4, ts("2003-01-01T00:00:00"), xmldom.NewElement("transaction")), // name mismatch
	}
	for i, f := range bad {
		if err := st.Add(f); err == nil {
			t.Errorf("case %d: bad fragment accepted", i)
		}
	}
	if st.Len() != 0 {
		t.Fatal("store should be empty")
	}
}

func TestStoreVersionOrdering(t *testing.T) {
	s := creditStruct(t)
	st := NewStore(s)
	mk := func(at string, text string) *Fragment {
		return New(7, 4, ts(at), xmldom.TextElem("creditLimit", text))
	}
	// add out of order
	if err := st.AddAll([]*Fragment{
		mk("2003-06-01T00:00:00", "3000"),
		mk("2003-01-01T00:00:00", "1000"),
		mk("2003-03-01T00:00:00", "2000"),
	}); err != nil {
		t.Fatal(err)
	}
	vs := st.Versions(7)
	var texts []string
	for _, f := range vs {
		texts = append(texts, f.Payload.TrimmedText())
	}
	if strings.Join(texts, ",") != "1000,2000,3000" {
		t.Fatalf("version order = %v", texts)
	}
}

func TestGetFillersTemporalChain(t *testing.T) {
	s := creditStruct(t)
	st := NewStore(s)
	mk := func(at, text string) *Fragment {
		return New(7, 4, ts(at), xmldom.TextElem("creditLimit", text))
	}
	_ = st.AddAll([]*Fragment{
		mk("2003-01-01T00:00:00", "1000"),
		mk("2003-03-01T00:00:00", "2000"),
	})
	at := ts("2003-06-01T00:00:00")
	els := readFillers(st, 7, at)
	if len(els) != 2 {
		t.Fatalf("versions = %d", len(els))
	}
	if from, _ := els[0].Attr("vtFrom"); from != "2003-01-01T00:00:00" {
		t.Fatalf("v1 vtFrom = %q", from)
	}
	if to, _ := els[0].Attr("vtTo"); to != "2003-03-01T00:00:00" {
		t.Fatalf("v1 vtTo = %q (should be the next version's validTime)", to)
	}
	if to, _ := els[1].Attr("vtTo"); to != "now" {
		t.Fatalf("last version vtTo = %q", to)
	}
}

// The lifespan a read stamps is each version's validTime as Layout spells
// it, however the wire spelled it, on a top element of the read's own:
// attributes sized once, in the payload's order, a vtFrom or vtTo the
// payload carries itself replaced in place, the stored payload untouched.
func TestGetFillersStampsLifespans(t *testing.T) {
	st := NewStore(creditStruct(t))
	for _, vt := range []string{"2003-01-01T00:00:00", "2003-02-01T00:00:00Z", "2003-03-01T01:00:00+01:00", "2003-04-01T00:00:00.250", "2003-05-01"} {
		f, err := Parse(`<filler id="7" tsid="4" validTime="` + vt + `"><creditLimit vtTo="stale" unit="USD">` + vt + `</creditLimit></filler>`)
		if err != nil {
			t.Fatalf("%s: %v", vt, err)
		}
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	els := readFillers(st, 7, ts("2004-01-01T00:00:00"))
	want := []string{
		`<creditLimit vtTo="2003-02-01T00:00:00" unit="USD" vtFrom="2003-01-01T00:00:00">2003-01-01T00:00:00</creditLimit>`,
		`<creditLimit vtTo="2003-03-01T00:00:00" unit="USD" vtFrom="2003-02-01T00:00:00">2003-02-01T00:00:00Z</creditLimit>`,
		`<creditLimit vtTo="2003-04-01T00:00:00" unit="USD" vtFrom="2003-03-01T00:00:00">2003-03-01T01:00:00+01:00</creditLimit>`,
		`<creditLimit vtTo="2003-05-01T00:00:00" unit="USD" vtFrom="2003-04-01T00:00:00">2003-04-01T00:00:00.250</creditLimit>`,
		`<creditLimit vtTo="now" unit="USD" vtFrom="2003-05-01T00:00:00">2003-05-01</creditLimit>`,
	}
	if len(els) != len(want) {
		t.Fatalf("%d versions, want %d", len(els), len(want))
	}
	for i, el := range els {
		if el.String() != want[i] {
			t.Errorf("version %d:\n%s\nwant\n%s", i+1, el, want[i])
		}
		if cap(el.Attrs) != 2+2 {
			t.Errorf("version %d: room for %d attributes, want the payload's two and the lifespan's two", i+1, cap(el.Attrs))
		}
	}
	if v, _ := st.Versions(7)[0].Tree().Attr("vtTo"); v != "stale" {
		t.Errorf("the read wrote the stored payload: vtTo = %q", v)
	}
}

func TestGetFillersEventPoint(t *testing.T) {
	s := creditStruct(t)
	st := NewStore(s)
	tx := xmldom.TextElem("transaction", "")
	_ = st.Add(New(9, 5, ts("2003-10-23T12:23:34"), tx))
	els := readFillers(st, 9, ts("2003-12-01T00:00:00"))
	if len(els) != 1 {
		t.Fatal("event missing")
	}
	from, _ := els[0].Attr("vtFrom")
	to, _ := els[0].Attr("vtTo")
	if from != to || from != "2003-10-23T12:23:34" {
		t.Fatalf("event lifespan = [%s,%s]", from, to)
	}
}

func TestGetFillersFutureInvisible(t *testing.T) {
	s := creditStruct(t)
	st := NewStore(s)
	mk := func(at, text string) *Fragment {
		return New(7, 4, ts(at), xmldom.TextElem("creditLimit", text))
	}
	_ = st.AddAll([]*Fragment{
		mk("2003-01-01T00:00:00", "1000"),
		mk("2003-09-01T00:00:00", "9000"),
	})
	at := ts("2003-06-01T00:00:00")
	els := readFillers(st, 7, at)
	if len(els) != 1 {
		t.Fatalf("future version leaked: %d elements", len(els))
	}
	// and the visible version is open-ended as of `at`
	if to, _ := els[0].Attr("vtTo"); to != "now" {
		t.Fatalf("vtTo = %q", to)
	}
	if lv := st.LatestVersion(7, at); lv == nil || lv.Payload.TrimmedText() != "1000" {
		t.Fatalf("LatestVersion = %v", lv)
	}
}

func TestStatusUpdateScenario(t *testing.T) {
	// Fillers 3-5 of §4.2: a charge whose status later flips to suspended.
	s := creditStruct(t)
	st := NewStore(s)
	txPayload := xmldom.MustParseString(
		`<transaction id="23456"><vendor>ResAris Contaceu</vendor><amount>1200</amount><hole id="400" tsid="7"/></transaction>`).Root()
	_ = st.Add(New(300, 5, ts("2003-09-10T14:30:12"), txPayload))
	_ = st.Add(New(400, 7, ts("2003-09-10T14:30:13"), xmldom.TextElem("status", "charged")))
	_ = st.Add(New(400, 7, ts("2003-11-01T10:12:56"), xmldom.TextElem("status", "suspended")))

	// before the suspension, current status is charged
	before := ts("2003-10-01T00:00:00")
	if cur := st.LatestVersion(400, before); cur.Payload.TrimmedText() != "charged" {
		t.Fatalf("status before = %q", cur.Payload.TrimmedText())
	}
	// after, it is suspended and the charged version is closed
	after := ts("2003-12-01T00:00:00")
	els := readFillers(st, 400, after)
	if len(els) != 2 {
		t.Fatalf("status versions = %d", len(els))
	}
	if to, _ := els[0].Attr("vtTo"); to != "2003-11-01T10:12:56" {
		t.Fatalf("charged vtTo = %q", to)
	}
	if els[1].TrimmedText() != "suspended" {
		t.Fatal("current status should be suspended")
	}
}

func TestByTSIDIndex(t *testing.T) {
	_, frags := fragmentCredit(t)
	s := creditStruct(t)
	st := NewStore(s)
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	if fids, n := st.TSIDFillers(5); n != 1 || len(fids) != 1 || st.Versions(fids[0])[0].Payload.Name != "transaction" {
		t.Fatalf("TSIDFillers(5) = %v, %d versions", fids, n)
	}
	if fids, n := st.TSIDFillers(4); n != 2 || len(fids) != 1 || len(st.Versions(fids[0])) != 2 {
		t.Fatalf("TSIDFillers(4) = %v, %d versions", fids, n)
	}
}

func TestGetFillersListConcatenates(t *testing.T) {
	s := creditStruct(t)
	st := NewStore(s)
	_ = st.Add(New(1, 4, ts("2003-01-01T00:00:00"), xmldom.TextElem("creditLimit", "a")))
	_ = st.Add(New(2, 4, ts("2003-01-02T00:00:00"), xmldom.TextElem("creditLimit", "b")))
	at := ts("2003-06-01T00:00:00")
	els, _ := NewAccess(TSIDIndexAccess, Eval{At: at}).Read(st, Read{IDs: []int{1, 2, 99}})
	if len(els) != 2 {
		t.Fatalf("list = %d", len(els))
	}
}

func TestLifespan(t *testing.T) {
	s := creditStruct(t)
	st := NewStore(s)
	_ = st.Add(New(1, 4, ts("2003-01-01T00:00:00"), xmldom.TextElem("creditLimit", "a")))
	_ = st.Add(New(1, 4, ts("2003-02-01T00:00:00"), xmldom.TextElem("creditLimit", "b")))
	_ = st.Add(New(1, 4, ts("2003-09-01T00:00:00"), xmldom.TextElem("creditLimit", "c")))
	els := readFillers(st, 1, ts("2003-06-01T00:00:00"))
	if len(els) != 2 {
		t.Fatalf("%d versions visible, want 2 (the third is dated after the read)", len(els))
	}
	if from, to := els[0].AttrOr("vtFrom", ""), els[0].AttrOr("vtTo", ""); from != "2003-01-01T00:00:00" || to != "2003-02-01T00:00:00" {
		t.Fatalf("v0 lifespan = [%s, %s]", from, to)
	}
	if from, to := els[1].AttrOr("vtFrom", ""), els[1].AttrOr("vtTo", ""); from != "2003-02-01T00:00:00" || to != "now" {
		t.Fatalf("v1 lifespan = [%s, %s], want it open: its successor has not happened yet", from, to)
	}
}

func TestUpdatePreservesHoles(t *testing.T) {
	s := creditStruct(t)
	fr := NewFragmenter(s)
	payload := xmldom.MustParseString(
		`<transaction id="23456"><vendor>V</vendor><amount>10</amount><hole id="400" tsid="7"/></transaction>`).Root()
	frags, err := fr.Update(300, s.ByID(5), payload, ts("2003-09-10T14:30:12"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 1 {
		t.Fatalf("update produced %d fragments", len(frags))
	}
	if ids := HoleIDs(nil, frags[0].Payload, 7); len(ids) != 1 || ids[0] != 400 {
		t.Fatalf("holes after update = %v", ids)
	}
	if frags[0].FillerID != 300 {
		t.Fatal("update must reuse the filler id")
	}
}

func TestUpdateCutsNestedFreshElements(t *testing.T) {
	s := creditStruct(t)
	fr := NewFragmenter(s)
	payload := xmldom.MustParseString(
		`<transaction id="1"><vendor>V</vendor><amount>10</amount><status>charged</status></transaction>`).Root()
	frags, err := fr.Update(300, s.ByID(5), payload, ts("2003-09-10T14:30:12"))
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 2 {
		t.Fatalf("update produced %d fragments, want tx + status", len(frags))
	}
	if frags[1].Payload.Name != "status" {
		t.Fatalf("second fragment = %s", frags[1])
	}
	if len(HoleIDs(nil, frags[0].Payload, 7)) != 1 {
		t.Fatal("fresh status should be replaced by a hole")
	}
}

func TestScanStoreMatchesIndexedStore(t *testing.T) {
	s, frags := fragmentCredit(t)
	indexed := NewStore(s)
	scan := NewScanStore(s)
	if err := indexed.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	if err := scan.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	if !scan.Scanning() || indexed.Scanning() {
		t.Fatal("Scanning flags")
	}
	at := ts("2003-12-01T00:00:00")
	for _, id := range indexed.FillerIDs() {
		a, b := readFillers(indexed, id, at), readFillers(scan, id, at)
		if len(a) != len(b) {
			t.Fatalf("filler %d: %d vs %d versions", id, len(a), len(b))
		}
		for i := range a {
			if !a[i].Equal(b[i]) {
				t.Fatalf("filler %d version %d differs", id, i)
			}
		}
	}
	for tsid := 1; tsid <= 8; tsid++ {
		fids, n := indexed.TSIDFillers(tsid)
		scanFids, scanN := scan.TSIDFillers(tsid)
		if n != scanN || !slices.Equal(fids, scanFids) {
			t.Fatalf("tsid %d: %v (%d versions) vs %v (%d)", tsid, fids, n, scanFids, scanN)
		}
		// the pass a scan store pays for finds what its index holds
		if got := scan.scanPass(AttrTSID, []int{tsid}); got != n {
			t.Fatalf("tsid %d: the log pass matched %d versions, the index holds %d", tsid, got, n)
		}
	}
	if !slices.Equal(indexed.FillerIDs(), scan.FillerIDs()) {
		t.Fatal("FillerIDs differ")
	}
	if got := scan.scanPass(AttrID, scan.FillerIDs()); got != scan.Len() {
		t.Fatalf("the log pass for every id matched %d of %d fragments", got, scan.Len())
	}
	// ids repeated, as a batch of several parents' holes holds them, and
	// ids far apart, which the pass looks up in a set instead of a bitmap
	ids := scan.FillerIDs()
	first, last := ids[0], ids[len(ids)-1]
	want := len(scan.Versions(first)) + len(scan.Versions(last))
	for _, values := range [][]int{{first, last, first, last}, {first, last, last + 1<<20}} {
		if got := scan.scanPass(AttrID, values); got != want {
			t.Fatalf("the log pass for %v matched %d fragments, want %d", values, got, want)
		}
	}
}

// TestReadDistinct: a read keeps each id at its first position — in the
// read, or, for EachGroup, in its group — compacting the ids in place and
// closing each group where its ids end.
func TestReadDistinct(t *testing.T) {
	for _, c := range []struct {
		name      string
		ids, ends []int
		each      bool
		want      []int
		wantEnds  []int
	}{
		{"ascending", []int{1, 2, 5, 7, 9}, []int{2, 5}, false, []int{1, 2, 5, 7, 9}, []int{2, 5}},
		{"across the read", []int{3, 4, 4, 3, 5, 1, 3, 6}, []int{3, 5, 8}, false, []int{3, 4, 5, 1, 6}, []int{2, 3, 5}},
		{"within each group", []int{3, 4, 4, 3, 5, 1, 3, 6, 6}, []int{3, 5, 9}, true, []int{3, 4, 3, 5, 1, 3, 6}, []int{2, 4, 7}},
		{"an emptied group", []int{2, 3, 3, 2, 4}, []int{2, 4, 5}, false, []int{2, 3, 4}, []int{2, 2, 3}},
		{"a later group moved down", []int{5, 5, 5, 5, 7}, []int{3, 5}, false, []int{5, 7}, []int{1, 2}},
		{"one set", []int{5, 1, 5, 2, 1}, nil, false, []int{5, 1, 2}, nil},
	} {
		r := Read{IDs: slices.Clone(c.ids), EachGroup: c.each}
		for _, end := range c.ends {
			r.Groups = append(r.Groups, Group{End: end})
		}
		r.distinct()
		var ends []int
		lo := 0
		for i, g := range r.Groups {
			if g.Holes != g.End-lo {
				t.Errorf("%s: group %d reports %d holes, holds %d", c.name, i, g.Holes, g.End-lo)
			}
			ends, lo = append(ends, g.End), g.End
		}
		if !slices.Equal(r.IDs, c.want) || !slices.Equal(ends, c.wantEnds) {
			t.Errorf("%s: ids %v ends %v, want %v %v", c.name, r.IDs, ends, c.want, c.wantEnds)
		}
	}
}

// readFillers is the uncharged read of one filler through a hole.
func readFillers(st *Store, fid int, at time.Time) []*xmldom.Node {
	els, _ := NewAccess(LogScanAccess, Eval{At: at}).Read(st, Read{Source: FromHole, ID: fid})
	return els
}

// TestFromXMLIgnoresPublishedAt: the decode-side guard. A crafted frame
// must not be able to stamp PublishedAt — otherwise a peer could inject
// arbitrary delivery latencies into the client's histogram.
func TestFromXMLIgnoresPublishedAt(t *testing.T) {
	el := xmldom.MustParseString(
		`<filler id="7" tsid="4" validTime="2003-01-01T00:00:00" publishedAt="1999-01-01T00:00:00"><creditLimit>1</creditLimit></filler>`).Root()
	f, err := FromXML(el)
	if err != nil {
		t.Fatal(err)
	}
	if !f.PublishedAt.IsZero() {
		t.Fatalf("decoded PublishedAt = %v, want zero", f.PublishedAt)
	}
	// and the wire form never carries a publish stamp to begin with
	g := New(7, 4, ts("2003-01-01T00:00:00"), xmldom.MustParseString(`<creditLimit>1</creditLimit>`).Root())
	g.PublishedAt = time.Now()
	if _, ok := g.ToXML().Attr("publishedAt"); ok {
		t.Fatal("ToXML leaked a publish stamp onto the wire")
	}
	back, err := FromXML(g.ToXML())
	if err != nil {
		t.Fatal(err)
	}
	if !back.PublishedAt.IsZero() {
		t.Fatalf("round-tripped PublishedAt = %v, want zero", back.PublishedAt)
	}
}
