package fragment_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"xcql/internal/budget"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/obs"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// charges are the counters an access read may move; a contract row
// states all of them, so what a read must NOT move is pinned at zero.
type charges struct {
	holes, fillers, tsidLookups int64
}

func chargesOf(s *obs.EvalStats) charges {
	return charges{s.HolesResolved, s.FillersScanned, s.TSIDLookups}
}

func render(els []*xmldom.Node) string {
	var b strings.Builder
	for _, el := range els {
		b.WriteString(el.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// twoTSIDStore holds one filler id that arrived under tsid 2, then under
// tsid 3, then under tsid 2 again — what no fragmenter produces and a
// store accepts.
func twoTSIDStore(t *testing.T, scan bool) *fragment.Store {
	t.Helper()
	structure, err := tagstruct.ParseString(`<stream:structure>
<tag type="snapshot" id="1" name="r">
  <tag type="temporal" id="2" name="a"/>
  <tag type="temporal" id="3" name="b"/>
</tag>
</stream:structure>`)
	if err != nil {
		t.Fatal(err)
	}
	st := fragment.NewStore(structure)
	if scan {
		st = fragment.NewScanStore(structure)
	}
	for _, wire := range []string{
		`<filler id="0" tsid="1" validTime="2004-01-01T00:00:00"><r><hole id="5" tsid="2"/></r></filler>`,
		`<filler id="5" tsid="2" validTime="2004-01-01T00:00:00"><a>one</a></filler>`,
		`<filler id="5" tsid="3" validTime="2004-01-01T01:00:00"><b>two</b></filler>`,
		`<filler id="5" tsid="2" validTime="2004-01-01T02:00:00"><a>three</a></filler>`,
	} {
		f, err := fragment.Parse(wire)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// groupsAt closes a read's ids into groups ending at ends.
func groupsAt(ends ...int) []fragment.Group {
	groups := make([]fragment.Group, len(ends))
	for i, end := range ends {
		groups[i].End = end
	}
	return groups
}

// readOf makes r through a and returns what it returned and reported: its
// groups' reports, then the read's as one group. r's ids and groups are
// copied first: a read drops repeated ids in place, and reports in its
// groups.
func readOf(a fragment.Access, st *fragment.Store, r fragment.Read) ([]*xmldom.Node, []fragment.Group) {
	r.IDs, r.Groups = slices.Clone(r.IDs), slices.Clone(r.Groups)
	els, g := a.Read(st, r)
	return els, append(r.Groups, g)
}

// TestAccessContract makes a read of every request shape — hole ids whole,
// in groups deduped across the read or within each group, windowed, for
// the last version, of bare tops; one hole at a time; a filler reached
// without a hole; by tsid — through both access implementations, over
// generated indexed and scan stores: the elements are byte-identical
// whichever index serves them, each implementation moves exactly the
// counters it owns, and the report every read fills in is the same
// whoever serves it; a bare read hands out the stored payloads
// themselves. Deferred reads have their own tests:
// TestFillersEachIsTheCallsInTurn and TestChargeFillersChargesTheRead.
func TestAccessContract(t *testing.T) {
	kinds := []struct {
		name string
		kind fragment.AccessKind
	}{
		{"log-scan", fragment.LogScanAccess},
		{"tsid-index", fragment.TSIDIndexAccess},
	}
	for _, scan := range []bool{false, true} {
		ins, st := contractStore(t, scan)
		at := genstore.Base.Add(1000 * time.Hour) // every version visible
		var ids []int
		for _, id := range st.FillerIDs() {
			if id != fragment.RootFillerID {
				ids = append(ids, id)
			}
		}
		if len(ids) < 8 {
			t.Fatalf("generated store holds only %d fillers", len(ids))
		}
		var tsids []int
		for _, tag := range ins.Structure.Tags() {
			if tag.IsFragmented() {
				tsids = append(tsids, tag.ID)
			}
		}
		// passCost is what one lookup pass returning n elements costs
		// under the store's model
		passCost := func(n int) int64 { return int64(st.PassCost(1, n)) }
		logScan := func() fragment.Access { return fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: at}) }
		// whole is the elements of a read of distinct ids as one set
		whole := func(ids ...int) []*xmldom.Node {
			els, _ := readOf(logScan(), st, fragment.Read{IDs: ids})
			return els
		}

		// one row per request shape; want states, per implementation, the
		// charges of running it once, and oracle what it returns as simpler
		// reads spell it
		type row struct {
			name     string
			run      func(fragment.Access) ([]*xmldom.Node, []fragment.Group)
			want     func(kind fragment.AccessKind, els []*xmldom.Node) charges
			oracle   func() []*xmldom.Node
			elements string // spelled out, when set
			bare     bool
			several  bool // several reads, each reported as one group
		}
		two := twoTSIDStore(t, scan)
		perID := func(els []*xmldom.Node, n int) charges {
			// one hole and one pass per id
			c := charges{holes: int64(n), fillers: int64(len(els))}
			if scan {
				c.fillers = int64(n) * passCost(0)
			}
			return c
		}
		batched := func(kind fragment.AccessKind, n int, els []*xmldom.Node) charges {
			if kind == fragment.LogScanAccess {
				return perID(els, n)
			}
			// one pass for the whole batch
			return charges{holes: int64(n), fillers: passCost(len(els))}
		}
		dupIDs := []int{ids[1], ids[0], ids[1], 1 << 20, ids[2], ids[0]}
		// three parents' groups sharing ids, one of them repeating its own
		grouped := fragment.Read{IDs: []int{ids[0], ids[1], ids[2], ids[1], ids[3], ids[4], ids[4], ids[0]}, Groups: groupsAt(3, 5, 8)}
		inTurn := func(r fragment.Read) func() []*xmldom.Node {
			// each group's own read, in turn, positions counted within it
			return func() (out []*xmldom.Node) {
				lo := 0
				for _, g := range r.Groups {
					own := r
					own.IDs, own.Groups = r.IDs[lo:g.End], groupsAt(g.End-lo)
					els, _ := readOf(logScan(), st, own)
					out = append(out, els...)
					lo = g.End
				}
				return out
			}
		}
		windowed := func(name string, w fragment.Read) row {
			w.IDs, w.Groups, w.EachGroup = grouped.IDs, grouped.Groups, true
			return row{
				name:   name,
				run:    func(a fragment.Access) ([]*xmldom.Node, []fragment.Group) { return readOf(a, st, w) },
				oracle: inTurn(w),
			}
		}
		rows := []row{
			{
				name: "whole-set",
				run: func(a fragment.Access) ([]*xmldom.Node, []fragment.Group) {
					return readOf(a, st, fragment.Read{IDs: ids})
				},
				want: func(kind fragment.AccessKind, els []*xmldom.Node) charges {
					return batched(kind, len(ids), els)
				},
			},
			{
				name: "one-hole",
				run: func(a fragment.Access) (out []*xmldom.Node, groups []fragment.Group) {
					for _, id := range ids {
						els, g := readOf(a, st, fragment.Read{Source: fragment.FromHole, ID: id})
						out, groups = append(out, els...), append(groups, g...)
					}
					return out, groups
				},
				want: func(kind fragment.AccessKind, els []*xmldom.Node) charges {
					return perID(els, len(ids))
				},
				oracle:  func() []*xmldom.Node { return whole(ids...) },
				several: true,
			},
			{
				name: "hole-less",
				run: func(a fragment.Access) ([]*xmldom.Node, []fragment.Group) {
					return readOf(a, st, fragment.Read{Source: fragment.FromFiller, ID: fragment.RootFillerID})
				},
				want: func(kind fragment.AccessKind, els []*xmldom.Node) charges {
					// the root is reached without a hole: no hole counted
					return charges{fillers: passCost(len(els))}
				},
			},
			{
				name: "whole-set-repeated-and-unknown-ids",
				run: func(a fragment.Access) ([]*xmldom.Node, []fragment.Group) {
					return readOf(a, st, fragment.Read{IDs: dupIDs})
				},
				want: func(kind fragment.AccessKind, els []*xmldom.Node) charges {
					// four distinct ids, the unknown one among them
					return batched(kind, 4, els)
				},
				oracle: func() []*xmldom.Node { return whole(ids[1], ids[0], 1<<20, ids[2]) },
			},
			{
				// an id counts at its first position in the read: the third
				// group's ids were all read before it
				name: "grouped-deduped-across-the-read",
				run:  func(a fragment.Access) ([]*xmldom.Node, []fragment.Group) { return readOf(a, st, grouped) },
				want: func(kind fragment.AccessKind, els []*xmldom.Node) charges {
					return batched(kind, 5, els)
				},
				oracle: func() []*xmldom.Node { return whole(ids[0], ids[1], ids[2], ids[3], ids[4]) },
			},
			windowed("grouped-deduped-within-each-group", fragment.Read{}),
			windowed("windowed-[1]", fragment.Read{From: 1, To: 1}),
			windowed("windowed-[<=2]", fragment.Read{From: 1, To: 2}),
			windowed("last", fragment.Read{Last: true}),
			{
				// bare tops are the stored payloads, their stamps reported
				// as bytes
				name: "bare",
				run: func(a fragment.Access) ([]*xmldom.Node, []fragment.Group) {
					return readOf(a, st, fragment.Read{IDs: grouped.IDs, Groups: grouped.Groups, Bare: true})
				},
				bare: true,
			},
			{
				name: "by-tsid",
				run: func(a fragment.Access) (out []*xmldom.Node, groups []fragment.Group) {
					for _, tsid := range tsids {
						els, g := readOf(a, st, fragment.Read{Source: fragment.FromTSID, ID: tsid})
						out, groups = append(out, els...), append(groups, g...)
					}
					return out, groups
				},
				want: func(kind fragment.AccessKind, els []*xmldom.Node) charges {
					n := int64(len(tsids))
					c := charges{tsidLookups: n, fillers: int64(len(els))}
					if scan {
						c.fillers = n * passCost(0)
					}
					return c
				},
				several: true,
			},
			{
				// a read by tsid returns the versions carrying the tsid, and
				// only those; a version's lifespan is closed by the filler's
				// next version, whichever tsid that one carries
				name: "by-tsid-of-a-filler-id-under-two-tsids",
				run: func(a fragment.Access) ([]*xmldom.Node, []fragment.Group) {
					els2, g2 := readOf(a, two, fragment.Read{Source: fragment.FromTSID, ID: 2})
					els3, g3 := readOf(a, two, fragment.Read{Source: fragment.FromTSID, ID: 3})
					return append(els2, els3...), append(g2, g3...)
				},
				elements: `<a vtFrom="2004-01-01T00:00:00" vtTo="2004-01-01T01:00:00">one</a>
<a vtFrom="2004-01-01T02:00:00" vtTo="now">three</a>
<b vtFrom="2004-01-01T01:00:00" vtTo="2004-01-01T02:00:00">two</b>
`,
				several: true,
			},
		}
		stamped := whole(ids[:5]...) // what the bare row reads, stamped
		payloads := map[*xmldom.Node]bool{}
		for _, id := range st.FillerIDs() {
			for _, v := range st.Versions(id) {
				payloads[v.Tree()] = true
			}
		}
		for _, rd := range rows {
			refEls, refGroups := rd.run(logScan())
			reference := render(refEls)
			if reference == "" {
				t.Fatalf("scan=%v %s: reference read is empty", scan, rd.name)
			}
			if rd.elements != "" && reference != rd.elements {
				t.Errorf("scan=%v %s: the log scan returned\n%s\nwant\n%s", scan, rd.name, reference, rd.elements)
			}
			if rd.oracle != nil {
				if want := render(rd.oracle()); reference != want {
					t.Errorf("scan=%v %s: the log scan returned\n%s\nits oracle\n%s", scan, rd.name, reference, want)
				}
			}
			for _, k := range kinds {
				name := fmt.Sprintf("scan=%v/%s/%s", scan, rd.name, k.name)
				stats := &obs.EvalStats{}
				els, groups := rd.run(fragment.NewAccess(k.kind, fragment.Eval{At: at, Stats: stats}))
				if rd.bare {
					// the stamps a bare read reports are what the stamped
					// read's tops weigh beyond its payloads
					size := int64(0)
					for _, el := range els {
						size += int64(el.TreeSize())
					}
					var want int64
					for _, el := range stamped {
						want += int64(el.TreeSize())
					}
					total := groups[len(groups)-1]
					if got := size + int64(total.Stamps); got != want {
						t.Errorf("%s: %d bytes of tops and %d of stamps, the stamped read's are %d", name, size, total.Stamps, want)
					}
					if stats.NodesConstructed != 0 {
						t.Errorf("%s: built %d tops", name, stats.NodesConstructed)
					}
					for _, el := range els {
						if !payloads[el] {
							t.Errorf("%s: a bare read handed out %s, not a stored payload", name, el)
							break
						}
					}
				} else if got := render(els); got != reference {
					t.Errorf("%s: elements differ from the log scan's:\n%s\nwant:\n%s", name, got, reference)
				}
				// the report: the same whoever serves the read
				if len(groups) != len(refGroups) {
					t.Fatalf("%s: %d reports, the log scan's %d", name, len(groups), len(refGroups))
				}
				built := 0
				for i, g := range groups {
					if ref := refGroups[i]; g.End != ref.End || g.Holes != ref.Holes || g.Examined != ref.Examined || g.Stamps != ref.Stamps {
						t.Errorf("%s: report %d is %+v, the log scan's %+v", name, i, g, ref)
					}
					if rd.several || i == len(groups)-1 {
						built += g.Built // a read as one group
					}
				}
				if int64(built) != stats.NodesConstructed {
					t.Errorf("%s: reports built %d tops, %d charged", name, built, stats.NodesConstructed)
				}
				if rd.want == nil {
					continue
				}
				if got, want := chargesOf(stats), rd.want(k.kind, els); got != want {
					t.Errorf("%s: charged %+v, want %+v", name, got, want)
				}
			}
		}
		// an incremental unit's read — a filler reached without a hole — asks
		// its filter once per visible version, in validTime order, whatever
		// the filter answers, so that a unit can select its versions by
		// position; and it is charged what the unfiltered read is
		multi, hidden := 0, 0
		for _, k := range kinds {
			for _, when := range []time.Time{ins.Instants[1], at} {
				for _, id := range ids {
					name := fmt.Sprintf("scan=%v/unit-read/%s/filler %d at %s", scan, k.name, id, when.Format(time.DateTime))
					var visible []*xmldom.Node
					for _, v := range st.Versions(id) {
						if !v.ValidTime.After(when) {
							visible = append(visible, v.Tree())
						} else {
							hidden++
						}
					}
					if len(visible) > 1 {
						multi++
					}
					plain, filtered := &obs.EvalStats{}, &obs.EvalStats{}
					all, _ := fragment.NewAccess(k.kind, fragment.Eval{At: when, Stats: plain}).Read(st, fragment.Read{Source: fragment.FromFiller, ID: id})
					var asked []*xmldom.Node
					odd := func(v fragment.Version) bool { asked = append(asked, v.Payload()); return len(asked)%2 == 1 }
					kept, _ := fragment.NewAccess(k.kind, fragment.Eval{At: when, Stats: filtered}).Read(st, fragment.Read{Source: fragment.FromFiller, ID: id, Keep: odd})
					if !slices.Equal(asked, visible) {
						t.Errorf("%s: filter asked about %d payloads, want the %d visible versions' in validTime order", name, len(asked), len(visible))
					}
					if len(all) != len(visible) || len(kept) != (len(visible)+1)/2 {
						t.Errorf("%s: %d versions read, %d kept of every other one; %d visible", name, len(all), len(kept), len(visible))
					}
					if got, want := chargesOf(filtered), chargesOf(plain); got != want {
						t.Errorf("%s: charged %+v filtered, %+v unfiltered", name, got, want)
					}
				}
			}
		}
		if multi == 0 || hidden == 0 {
			t.Fatalf("scan=%v: unit reads met %d fillers of several visible versions and %d versions not yet visible: the row tests nothing", scan, multi, hidden)
		}
		// the census EXPLAIN predicts tsid reads from is what they return
		for _, tsid := range tsids {
			_, versions := st.TSIDFillers(tsid)
			if got, _ := readOf(logScan(), st, fragment.Read{Source: fragment.FromTSID, ID: tsid}); len(got) != versions {
				t.Errorf("scan=%v tsid %d: census predicts %d versions, read returned %d", scan, tsid, versions, len(got))
			}
		}
	}
}

// contractStore is the re-announcing generated store the access contract
// tests read, indexed or scan.
func contractStore(t *testing.T, scan bool) (*genstore.Instance, *fragment.Store) {
	t.Helper()
	ins, err := genstore.Generate(genstore.Profile{Seed: 12, Scan: scan, Reannounce: true})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ins.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	if st.Scanning() != scan {
		t.Fatalf("store scanning = %v, want %v", st.Scanning(), scan)
	}
	return ins, st
}

// deferredWindows are the windows a deferred read is made under.
var deferredWindows = map[string]fragment.Read{
	"every":    {},
	"[1]":      {From: 1, To: 1},
	"[last()]": {Last: true},
	"[<=2]":    {From: 1, To: 2},
}

// deferredSets are the id sets a for clause's read-ahead reads as the
// groups of one deferred read: ids repeated across the sets and within
// one, an unknown id among them, one set empty; ids is the sets in turn
// and ends where each closes.
func deferredSets(st *fragment.Store) (sets [][]int, ids, ends []int) {
	fids := st.FillerIDs()[1:]
	sets = [][]int{fids[0:3], fids[1:4], {}, fids[0:3], {fids[4], fids[4], fids[3]}, fids[5:6], append(slices.Clone(fids[2:8]), 1<<20)}
	for _, set := range sets {
		ids = append(ids, set...)
		ends = append(ends, len(ids))
	}
	return sets, ids, ends
}

// spent is what a read charged: its counters and its budget's steps.
type spent struct {
	stats obs.EvalStats
	steps int64
	b     budget.Budget
}

func (s *spent) access(kind fragment.AccessKind, at time.Time) fragment.Access {
	return fragment.NewAccess(kind, fragment.Eval{At: at, Stats: &s.stats, Budget: &s.b})
}

// settle records the budget's steps used so far.
func (s *spent) settle() { s.steps, _, _ = s.b.Used() }

// TestFillersEachIsTheCallsInTurn: one deferred read of several id sets
// as its groups (deferredSets) returns what each set's own read returns,
// in turn, with the same window per set, and charges nothing — no
// counter, no budget step; each group charged through Charge then charges
// what its own read charged: holes, fillers, nodes, budget steps.
func TestFillersEachIsTheCallsInTurn(t *testing.T) {
	for _, scan := range []bool{false, true} {
		_, st := contractStore(t, scan)
		sets, ids, ends := deferredSets(st)
		for _, at := range []time.Time{genstore.Base.Add(6 * time.Hour), genstore.Base.Add(1000 * time.Hour)} {
			for _, kind := range []fragment.AccessKind{fragment.LogScanAccess, fragment.TSIDIndexAccess} {
				for wname, w := range deferredWindows {
					name := fmt.Sprintf("scan=%v/%d/%s/at=%s", scan, kind, wname, at.Format(time.DateTime))
					// each set's own read, in turn
					var calls spent
					var want []*xmldom.Node
					var wantEnds []int
					for _, set := range sets {
						own := w
						own.IDs, own.Groups = set, groupsAt(len(set))
						els, _ := readOf(calls.access(kind, at), st, own)
						want = append(want, els...)
						wantEnds = append(wantEnds, len(want))
					}
					calls.settle()
					// the one deferred read
					var each spent
					acc := each.access(kind, at)
					r := w
					r.IDs, r.Groups, r.EachGroup, r.Defer = ids, groupsAt(ends...), true, true
					got, groups := readOf(acc, st, r)
					groups = groups[:len(sets)]
					if each.settle(); each.stats != (obs.EvalStats{}) || each.steps != 0 {
						t.Errorf("%s: the deferred read charged %+v, %d steps", name, each.stats, each.steps)
					}
					gotEnds := make([]int, len(groups))
					for g := range groups {
						gotEnds[g] = groups[g].End
					}
					if render(got) != render(want) || !slices.Equal(gotEnds, wantEnds) {
						t.Fatalf("%s: read\n%s%v\nthe sets' own reads in turn\n%s%v", name, render(got), gotEnds, render(want), wantEnds)
					}
					for _, g := range groups {
						acc.Charge(st, g)
					}
					each.settle()
					if each.stats != calls.stats || each.steps != calls.steps {
						t.Errorf("%s: charged group by group\n%+v, %d steps\nthe sets' own reads charged\n%+v, %d steps", name, each.stats, each.steps, calls.stats, calls.steps)
					}
				}
			}
		}
	}
}

// TestChargeFillersChargesTheRead: a deferred read charged as one group
// moves every counter and the budget's steps exactly as the read made at
// once does, under every access implementation and window, on indexed and
// scan stores, with versions ahead of the instant and an id nothing is
// stored under; and so does a read of no position whose report counts
// every version examined as built — a fold's charge for the child step it
// does not make.
func TestChargeFillersChargesTheRead(t *testing.T) {
	for _, scan := range []bool{false, true} {
		_, st := contractStore(t, scan)
		_, ids, ends := deferredSets(st)
		for _, at := range []time.Time{genstore.Base.Add(6 * time.Hour), genstore.Base.Add(1000 * time.Hour)} {
			for _, kind := range []fragment.AccessKind{fragment.LogScanAccess, fragment.TSIDIndexAccess} {
				for wname, w := range deferredWindows {
					name := fmt.Sprintf("scan=%v/%d/%s/at=%s", scan, kind, wname, at.Format(time.DateTime))
					// the read as one group, deferred or made at once
					var once, whole spent
					r := w
					r.IDs, r.Groups, r.EachGroup = ids, groupsAt(ends...), true
					readOf(once.access(kind, at), st, r)
					r.Defer = true
					acc := whole.access(kind, at)
					_, groups := readOf(acc, st, r)
					acc.Charge(st, groups[len(groups)-1])
					once.settle()
					whole.settle()
					if whole.stats != once.stats || whole.steps != once.steps {
						t.Errorf("%s: charged as one group\n%+v, %d steps\nthe read made at once charged\n%+v, %d steps", name, whole.stats, whole.steps, once.stats, once.steps)
					}
					if wname != "every" {
						continue
					}
					// a read of no position, charged as if it built what it
					// examined, is the read: a child step's, deduped across
					// the read
					var child, fold spent
					read := fragment.Read{IDs: ids, Groups: groupsAt(ends...)}
					readOf(child.access(kind, at), st, read)
					read.From, read.To, read.Defer = 1, 0, true
					acc = fold.access(kind, at)
					els, groups := readOf(acc, st, read)
					g := groups[len(groups)-1]
					g.Built = g.Examined
					acc.Charge(st, g)
					child.settle()
					fold.settle()
					if len(els) != 0 || fold.stats != child.stats || fold.steps != child.steps {
						t.Errorf("%s: a read of no position returned %d versions and charged\n%+v, %d steps\nthe read charged\n%+v, %d steps", name, len(els), fold.stats, fold.steps, child.stats, child.steps)
					}
				}
			}
		}
	}
}

// TestAccessFilter: a read with a filter returns what the same read
// without one returns, less the versions the filter turns away — whichever
// index serves it — and is charged the unfiltered read's access cost: the
// filter is asked about every version examined, and only the constructed
// nodes follow what it kept.
func TestAccessFilter(t *testing.T) {
	kinds := []fragment.AccessKind{fragment.LogScanAccess, fragment.TSIDIndexAccess}
	for _, scan := range []bool{false, true} {
		ins, err := genstore.Generate(genstore.Profile{Seed: 12, Scan: scan})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ins.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		at := genstore.Base.Add(1000 * time.Hour)
		var ids []int
		for _, id := range st.FillerIDs() {
			if id != fragment.RootFillerID {
				ids = append(ids, id)
			}
		}
		var tsids []int
		for _, tag := range ins.Structure.Tags() {
			if tag.IsFragmented() {
				tsids = append(tsids, tag.ID)
			}
		}
		even := func(n *xmldom.Node) bool { return strings.ContainsAny(n.AttrOr("k", "1"), "0246") }
		reads := map[string]func(fragment.Access, fragment.Filter) []*xmldom.Node{
			"one-hole": func(a fragment.Access, keep fragment.Filter) (out []*xmldom.Node) {
				for _, id := range ids {
					els, _ := a.Read(st, fragment.Read{Source: fragment.FromHole, ID: id, Keep: keep})
					out = append(out, els...)
				}
				return out
			},
			"whole-set": func(a fragment.Access, keep fragment.Filter) []*xmldom.Node {
				els, _ := readOf(a, st, fragment.Read{IDs: ids, Keep: keep})
				return els
			},
			"bytsid": func(a fragment.Access, keep fragment.Filter) (out []*xmldom.Node) {
				for _, tsid := range tsids {
					els, _ := a.Read(st, fragment.Read{Source: fragment.FromTSID, ID: tsid, Keep: keep})
					out = append(out, els...)
				}
				return out
			},
		}
		for name, run := range reads {
			for _, kind := range kinds {
				name := fmt.Sprintf("scan=%v/%s/%d", scan, name, kind)
				plain, filtered := &obs.EvalStats{}, &obs.EvalStats{}
				all := run(fragment.NewAccess(kind, fragment.Eval{At: at, Stats: plain}), nil)
				asked := 0
				kept := run(fragment.NewAccess(kind, fragment.Eval{At: at, Stats: filtered}),
					func(v fragment.Version) bool {
						n := v.Payload()
						asked++
						if _, stamped := n.Attr("vtFrom"); stamped {
							t.Errorf("%s: filter ran on a stamped top, not the stored payload", name)
						}
						return even(n)
					})
				var want []*xmldom.Node
				for _, el := range all {
					if even(el) {
						want = append(want, el)
					}
				}
				if len(want) == 0 || len(want) == len(all) {
					t.Fatalf("%s: the filter keeps %d of %d versions, the case tests nothing", name, len(want), len(all))
				}
				if got := render(kept); got != render(want) {
					t.Errorf("%s: filtered read returned\n%s\nwant\n%s", name, got, render(want))
				}
				if asked != len(all) {
					t.Errorf("%s: filter asked about %d versions, %d examined", name, asked, len(all))
				}
				if got, want := chargesOf(filtered), chargesOf(plain); got != want {
					t.Errorf("%s: access cost with the filter %+v, without %+v", name, got, want)
				}
				if filtered.TSIDIndexHits != plain.TSIDIndexHits {
					t.Errorf("%s: index hits with the filter %d, without %d", name, filtered.TSIDIndexHits, plain.TSIDIndexHits)
				}
				if filtered.NodesConstructed != int64(len(kept)) {
					t.Errorf("%s: %d nodes constructed, want %d", name, filtered.NodesConstructed, len(kept))
				}
			}
		}
	}
}

// TestAccessWindow: a windowed read returns, group by group, the positions
// of its window among the versions the unwindowed read of the group returns
// — whichever index serves it — rewrites each group's End to where the
// group ends in its output, and is charged the unwindowed read's access
// cost; it builds only what it returns.
func TestAccessWindow(t *testing.T) {
	kinds := []fragment.AccessKind{fragment.LogScanAccess, fragment.TSIDIndexAccess}
	windows := map[string]fragment.Read{
		"[1]":        {From: 1, To: 1},
		"[2]":        {From: 2, To: 2},
		"[<=2]":      {From: 1, To: 2},
		"[last()]":   {Last: true},
		"[<1]":       {From: 1, To: 0},
		"every":      {From: 1, To: 1 << 30},
		"[3] of one": {From: 3, To: 3},
	}
	even := func(v fragment.Version) bool { return strings.ContainsAny(v.Payload().AttrOr("k", "1"), "0246") }
	for _, scan := range []bool{false, true} {
		ins, err := genstore.Generate(genstore.Profile{Seed: 12, Scan: scan})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ins.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		at := genstore.Base.Add(1000 * time.Hour)
		var ids, ends []int
		for _, id := range st.FillerIDs() {
			if id != fragment.RootFillerID {
				ids = append(ids, id)
			}
		}
		// groups of one, two, three, … ids
		for size, end := 1, 0; end < len(ids); size++ {
			end = min(end+size, len(ids))
			ends = append(ends, end)
		}
		for name, w := range windows {
			for _, keep := range []fragment.Filter{nil, even} {
				// what the window selects: its positions among each group's
				// kept versions, read unwindowed
				var want []*xmldom.Node
				var wantEnds []int
				lo := 0
				for _, hi := range ends {
					group, _ := readOf(fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: at}), st, fragment.Read{IDs: ids[lo:hi], Keep: keep})
					from, to := w.From, w.To
					if w.Last {
						from, to = len(group), len(group)
					}
					for i, el := range group {
						if i+1 >= from && i+1 <= to {
							want = append(want, el)
						}
					}
					wantEnds = append(wantEnds, len(want))
					lo = hi
				}
				if all, _ := readOf(fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: at}), st, fragment.Read{IDs: ids, Keep: keep}); name == "[1]" && (len(want) < 2 || len(want) == len(all)) {
					t.Fatalf("scan=%v: [1] keeps %d of %d versions, the case tests nothing", scan, len(want), len(all))
				}
				for _, kind := range kinds {
					name := fmt.Sprintf("scan=%v/%s/filter=%v/%d", scan, name, keep != nil, kind)
					whole, windowed := &obs.EvalStats{}, &obs.EvalStats{}
					all, _ := readOf(fragment.NewAccess(kind, fragment.Eval{At: at, Stats: whole}), st, fragment.Read{IDs: ids, Keep: keep})
					w.IDs, w.Keep, w.Groups = ids, keep, groupsAt(ends...)
					got, groups := readOf(fragment.NewAccess(kind, fragment.Eval{At: at, Stats: windowed}), st, w)
					if render(got) != render(want) {
						t.Errorf("%s: windowed read returned\n%s\nwant\n%s", name, render(got), render(want))
					}
					gotEnds := make([]int, len(ends))
					for g := range gotEnds {
						gotEnds[g] = groups[g].End
					}
					if !slices.Equal(gotEnds, wantEnds) {
						t.Errorf("%s: group ends rewritten to %v, want %v", name, gotEnds, wantEnds)
					}
					if a, b := chargesOf(windowed), chargesOf(whole); a != b {
						t.Errorf("%s: access cost with the window %+v, without %+v", name, a, b)
					}
					if windowed.NodesConstructed != int64(len(got)) {
						t.Errorf("%s: %d nodes constructed, want %d (%d unwindowed)", name, windowed.NodesConstructed, len(got), len(all))
					}
				}
			}
		}
	}
}

// TestReadTopsAreClippedWindows: a read builds its tops in one array of
// nodes and one of attributes. Each top's Attrs is a window of the one with
// room for exactly the payload's attributes and the lifespan's two, and its
// Children the stored payload's list, both capacity-clipped: an append to
// one top changes no other top of the same read and no stored payload.
func TestReadTopsAreClippedWindows(t *testing.T) {
	ins, err := genstore.Generate(genstore.Profile{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ins.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	at := genstore.Base.Add(1000 * time.Hour)
	var ids []int
	for _, id := range st.FillerIDs() {
		if id != fragment.RootFillerID {
			ids = append(ids, id)
		}
	}
	payloads := func() string {
		var b strings.Builder
		for _, id := range st.FillerIDs() {
			for _, f := range st.Versions(id) {
				b.WriteString(f.Payload.String())
			}
		}
		return b.String()
	}
	stored := payloads()
	even := func(v fragment.Version) bool { return strings.ContainsAny(v.Payload().AttrOr("k", "1"), "0246") }
	a := fragment.NewAccess(fragment.TSIDIndexAccess, fragment.Eval{At: at})
	read := func(r fragment.Read) []*xmldom.Node {
		els, _ := readOf(a, st, r)
		return els
	}
	reads := map[string]func() []*xmldom.Node{
		"whole-set": func() []*xmldom.Node { return read(fragment.Read{IDs: ids}) },
		"filtered":  func() []*xmldom.Node { return read(fragment.Read{IDs: ids, Keep: even}) },
		"windowed": func() []*xmldom.Node {
			return read(fragment.Read{IDs: ids, From: 1, To: 2, Groups: groupsAt(len(ids)/2, len(ids))})
		},
		"bytsid": func() (out []*xmldom.Node) {
			for _, tag := range ins.Structure.Tags() {
				if els := read(fragment.Read{Source: fragment.FromTSID, ID: tag.ID}); len(els) > len(out) {
					out = els
				}
			}
			return out
		},
	}
	for name, read := range reads {
		els := read()
		if len(els) < 2 {
			t.Fatalf("%s: %d tops, the case tests nothing", name, len(els))
		}
		want := make([]string, len(els))
		for i, el := range els {
			want[i] = el.String()
			if cap(el.Attrs) != len(el.Attrs) || cap(el.Children) != len(el.Children) {
				t.Errorf("%s: top %d has %d/%d attributes and %d/%d children (len/cap)", name, i,
					len(el.Attrs), cap(el.Attrs), len(el.Children), cap(el.Children))
			}
		}
		for i, el := range els {
			el.Attrs = append(el.Attrs, xmldom.Attr{Name: "x", Value: "y"})
			el.Children = append(el.Children, xmldom.NewText("z"))
			want[i] = el.String()
			for j, other := range els {
				if got := other.String(); got != want[j] {
					t.Fatalf("%s: appending to top %d changed top %d:\n%s\nwant\n%s", name, i, j, got, want[j])
				}
			}
		}
		if payloads() != stored {
			t.Fatalf("%s: appending to the tops changed a stored payload", name)
		}
	}
}
