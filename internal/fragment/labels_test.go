package fragment

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"xcql/internal/xmldom"
)

// labelFixture is a small two-account credit history with a known
// document order, multi-version fillers and one orphan. Valid times are
// all distinct: validTime ties break by arrival order, so distinct times
// are what makes the arrival-order stability property hold exactly.
func labelFixture(t *testing.T) []*Fragment {
	t.Helper()
	mk := func(fid, tsid int, at, payload string) *Fragment {
		doc, err := xmldom.ParseString(payload)
		if err != nil {
			t.Fatalf("payload %q: %v", payload, err)
		}
		return New(fid, tsid, ts(at), doc.Root())
	}
	return []*Fragment{
		mk(0, 1, "2003-01-01T00:00:00",
			`<creditAccounts><hole id="10" tsid="2"/><hole id="20" tsid="2"/></creditAccounts>`),
		mk(10, 2, "2003-01-02T00:00:00",
			`<account id="a1"><customer>John</customer><hole id="11" tsid="4"/><hole id="12" tsid="5"/></account>`),
		mk(20, 2, "2003-01-03T00:00:00",
			`<account id="a2"><customer>Mary</customer><hole id="21" tsid="4"/></account>`),
		mk(11, 4, "2003-01-04T00:00:00", `<creditLimit>2000</creditLimit>`),
		mk(21, 4, "2003-01-05T00:00:00", `<creditLimit>100</creditLimit>`),
		mk(12, 5, "2003-02-01T00:00:00",
			`<transaction><vendor>V</vendor><amount>38.20</amount><hole id="13" tsid="7"/></transaction>`),
		mk(13, 7, "2003-02-02T00:00:00", `<status>charged</status>`),
		// second versions: the labeler must read version-ordered groups
		mk(10, 2, "2003-03-01T00:00:00",
			`<account id="a1"><customer>John Q</customer><hole id="11" tsid="4"/><hole id="12" tsid="5"/></account>`),
		mk(11, 4, "2003-03-02T00:00:00", `<creditLimit>5000</creditLimit>`),
		// orphan: stored under tsid 5 but never announced by any hole
		mk(99, 5, "2003-04-01T00:00:00",
			`<transaction><vendor>W</vendor><amount>1.00</amount></transaction>`),
	}
}

var labelAt = ts("2004-01-01T00:00:00")

func labelStore(t *testing.T, frags []*Fragment) *Store {
	t.Helper()
	st := NewStore(creditStruct(t))
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	return st
}

// preorderFIDs reconstructs document order the slow way — walking holes
// through version-ordered payloads from the root — as the independent
// reference the label order must reproduce.
func preorderFIDs(st *Store) []int {
	var out []int
	var walk func(fid int)
	visited := map[int]bool{}
	walk = func(fid int) {
		if visited[fid] {
			return
		}
		visited[fid] = true
		out = append(out, fid)
		seen := map[int]bool{}
		for _, v := range st.Versions(fid) {
			v.Payload.Walk(func(n *xmldom.Node) bool {
				if !IsHole(n) {
					return true
				}
				if hid, err := HoleID(n); err == nil && !seen[hid] {
					seen[hid] = true
					if len(st.Versions(hid)) > 0 {
						walk(hid)
					}
				}
				return false
			})
		}
	}
	if len(st.Versions(RootFillerID)) > 0 {
		walk(RootFillerID)
	}
	return out
}

// Labels must reconstruct document order without a single hole walk:
// sorting fillers by label equals the preorder walk through the holes.
func TestLabelDocOrder(t *testing.T) {
	st := labelStore(t, labelFixture(t))
	idx := st.Labels()

	want := preorderFIDs(st)
	got := idx.DocOrderFIDs()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("label order %v != preorder hole walk %v", got, want)
	}
	// the order really is the lexicographic label order
	sorted := append([]int(nil), got...)
	sort.Slice(sorted, func(i, j int) bool {
		li, _ := idx.LabelOf(sorted[i])
		lj, _ := idx.LabelOf(sorted[j])
		return li.Compare(lj) < 0
	})
	if fmt.Sprint(sorted) != fmt.Sprint(got) {
		t.Fatalf("DocOrderFIDs not in label order: %v", got)
	}
	// every child label extends its parent's label by one slot
	parent := map[int]int{10: 0, 20: 0, 11: 10, 12: 10, 21: 20, 13: 12}
	for child, p := range parent {
		cl, ok1 := idx.LabelOf(child)
		pl, ok2 := idx.LabelOf(p)
		if !ok1 || !ok2 {
			t.Fatalf("filler %d or %d unlabeled", child, p)
		}
		if !cl.HasPrefix(pl) || len(cl) != len(pl)+1 {
			t.Errorf("label of %d (%s) does not extend label of %d (%s)", child, cl, p, pl)
		}
	}
	if lbl, ok := idx.LabelOf(RootFillerID); !ok || len(lbl) != 0 || lbl.String() != "ε" {
		t.Errorf("root label = %v, %v", lbl, ok)
	}
}

// TestLabelsMintedOnDemand: the reads a query issues never mint labels —
// a store that is written between reads pays for none — and the first
// label request mints them, once, with concurrent callers agreeing.
func TestLabelsMintedOnDemand(t *testing.T) {
	st := labelStore(t, labelFixture(t))
	idx := st.Labels()
	acc := NewAccess(LabelIndexAccess, Eval{At: labelAt})
	acc.Filler(st, 10, true, nil)
	acc.Fillers(st, []int{11, 12}, nil, Window{})
	acc.ByTSID(st, 5, nil)
	st.TSIDFillers(5)
	if idx != st.Labels() || idx.labels != nil || idx.docOrder != nil {
		t.Fatal("serving reads minted the labels")
	}
	got := make(chan string, 4)
	for i := 0; i < cap(got); i++ {
		go func() { got <- fmt.Sprint(idx.DocOrderFIDs(), idx.Labeled()) }()
	}
	first := <-got
	for i := 1; i < cap(got); i++ {
		if next := <-got; next != first {
			t.Fatalf("concurrent mints disagree: %s vs %s", first, next)
		}
	}
	if l, ok := idx.LabelOf(13); !ok || l.String() != "0.1.0" {
		t.Fatalf("label of filler 13 = %v %v, want 0.1.0", l, ok)
	}
}

// Reordered, reversed and duplicated arrivals must mint identical labels:
// the labeler reads version-ordered groups, not the ingest log order.
func TestLabelArrivalOrderStability(t *testing.T) {
	base := labelFixture(t)
	refStore := labelStore(t, base)
	ref := refStore.Labels()

	arrivals := map[string][]*Fragment{}
	rev := make([]*Fragment, len(base))
	for i, f := range base {
		rev[len(base)-1-i] = f
	}
	arrivals["reverse"] = rev
	for seed := int64(1); seed <= 3; seed++ {
		sh := append([]*Fragment(nil), base...)
		rand.New(rand.NewSource(seed)).Shuffle(len(sh), func(i, j int) { sh[i], sh[j] = sh[j], sh[i] })
		arrivals[fmt.Sprintf("shuffle%d", seed)] = sh
	}
	arrivals["duplicated"] = append(append([]*Fragment(nil), base...), base[1], base[4], base[0])

	for name, frags := range arrivals {
		st := labelStore(t, frags)
		idx := st.Labels()
		if idx.Labeled() != ref.Labeled() || len(st.FillerIDs()) != len(refStore.FillerIDs()) {
			t.Fatalf("%s: labeled %d/%d fillers, want %d/%d",
				name, idx.Labeled(), len(st.FillerIDs()), ref.Labeled(), len(refStore.FillerIDs()))
		}
		for _, fid := range ref.DocOrderFIDs() {
			want, _ := ref.LabelOf(fid)
			got, ok := idx.LabelOf(fid)
			if !ok || got.Compare(want) != 0 {
				t.Errorf("%s: label of %d = %s, want %s", name, fid, got, want)
			}
		}
	}
}

// The index is generation-memoized exactly like the materialization
// cache: same generation returns the same index, an ingest (or an
// explicit AdvanceGeneration, the recovery path) makes it stale and the
// next Labels() call re-labels against the new log.
func TestLabelGenerationRebuild(t *testing.T) {
	st := labelStore(t, labelFixture(t))
	idx := st.Labels()
	if idx.Generation() != st.Generation() {
		t.Fatalf("index gen %d != store gen %d", idx.Generation(), st.Generation())
	}
	if again := st.Labels(); again != idx {
		t.Fatal("unchanged store rebuilt its label index")
	}

	// a new root version announces a third account: labels must extend
	rootV2 := New(0, 1, ts("2003-05-01T00:00:00"), xmldom.MustParseString(
		`<creditAccounts><hole id="10" tsid="2"/><hole id="20" tsid="2"/><hole id="30" tsid="2"/></creditAccounts>`).Root())
	acct3 := New(30, 2, ts("2003-05-02T00:00:00"), xmldom.MustParseString(
		`<account id="a3"><customer>Zoe</customer></account>`).Root())
	if err := st.Add(rootV2); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(acct3); err != nil {
		t.Fatal(err)
	}
	fresh := st.Labels()
	if fresh == idx || fresh.Generation() == idx.Generation() {
		t.Fatal("ingest did not invalidate the label index")
	}
	lbl, ok := fresh.LabelOf(30)
	if !ok || lbl.String() != "2" {
		t.Fatalf("new account label = %v, %v, want 2", lbl, ok)
	}
	// old labels are unchanged by the extension
	for _, fid := range idx.DocOrderFIDs() {
		old, _ := idx.LabelOf(fid)
		now, ok := fresh.LabelOf(fid)
		if !ok || now.Compare(old) != 0 {
			t.Errorf("label of %d changed on extension: %s -> %s", fid, old, now)
		}
	}

	// recovery path: AdvanceGeneration with no log change still rebuilds
	before := st.Labels()
	st.AdvanceGeneration()
	after := st.Labels()
	if after == before || after.Generation() != st.Generation() {
		t.Fatal("AdvanceGeneration did not invalidate the label index")
	}
	if fmt.Sprint(after.DocOrderFIDs()) != fmt.Sprint(before.DocOrderFIDs()) {
		t.Fatal("re-label after AdvanceGeneration changed document order")
	}
}

// Compaction (duplicate coalescing) advances the generation, so the
// label index rebuilds — and since the labeler never counted duplicate
// versions to begin with, the re-labeled index is identical.
func TestLabelCompactionRelabel(t *testing.T) {
	base := labelFixture(t)
	withDups := append(append([]*Fragment(nil), base...), base[0], base[3], base[5])
	st := labelStore(t, withDups)
	before := st.Labels()

	if removed := st.Coalesce(); removed == 0 {
		t.Fatal("fixture with duplicates coalesced nothing")
	}
	after := st.Labels()
	if after == before || after.Generation() != st.Generation() {
		t.Fatal("compaction did not invalidate the label index")
	}
	if fmt.Sprint(after.DocOrderFIDs()) != fmt.Sprint(before.DocOrderFIDs()) {
		t.Fatalf("compaction changed label order: %v -> %v", before.DocOrderFIDs(), after.DocOrderFIDs())
	}
	for _, fid := range before.DocOrderFIDs() {
		old, _ := before.LabelOf(fid)
		now, _ := after.LabelOf(fid)
		if now.Compare(old) != 0 {
			t.Errorf("label of %d changed across compaction: %s -> %s", fid, old, now)
		}
	}
	// the compacted index must agree with a from-scratch duplicate-free build
	ref := labelStore(t, base).Labels()
	for _, fid := range ref.DocOrderFIDs() {
		want, _ := ref.LabelOf(fid)
		got, ok := after.LabelOf(fid)
		if !ok || got.Compare(want) != 0 {
			t.Errorf("compacted label of %d = %s, want %s", fid, got, want)
		}
	}
}

// Orphans stay unlabeled but remain served by the lookups: label-served
// reads must return exactly what the log-backed store reads return.
func TestLabelOrphans(t *testing.T) {
	st := labelStore(t, labelFixture(t))
	idx := st.Labels()
	if _, ok := idx.LabelOf(99); ok {
		t.Fatal("orphan filler 99 got a label")
	}
	if idx.Labeled() >= len(st.FillerIDs()) {
		t.Fatalf("labeled %d of %d fillers — fixture should have an orphan", idx.Labeled(), len(st.FillerIDs()))
	}
	viaLabels := NewAccess(LabelIndexAccess, Eval{At: labelAt})
	got := renderNodes(viaLabels.ByTSID(st, 5, nil))
	want := renderNodes(NewAccess(LogScanAccess, Eval{At: labelAt}).ByTSID(st, 5, nil))
	if got != want {
		t.Fatalf("tsid 5 via labels:\n%s\nvia store:\n%s", got, want)
	}
	if els := viaLabels.Filler(st, 99, true, nil); len(els) == 0 {
		t.Fatal("orphan not served by Filler")
	}
}

func renderNodes(els []*xmldom.Node) string {
	var out string
	for _, el := range els {
		out += el.String() + "\n"
	}
	return out
}
