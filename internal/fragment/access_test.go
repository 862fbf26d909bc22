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
	holes, fillers, tsidLookups, hits, misses int64
}

func chargesOf(s *obs.EvalStats) charges {
	return charges{s.HolesResolved, s.FillersScanned, s.TSIDLookups, s.CacheHits, s.CacheMisses}
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

// TestAccessContract runs the three reads every plan performs through
// the three access implementations, over generated indexed and scan
// stores, with the cache absent, cold and warm: the elements are
// byte-identical whichever index serves them, and each implementation
// moves exactly the counters it owns.
func TestAccessContract(t *testing.T) {
	kinds := []struct {
		name string
		kind fragment.AccessKind
	}{
		{"log-scan", fragment.LogScanAccess},
		{"tsid-index", fragment.TSIDIndexAccess},
	}
	for _, scan := range []bool{false, true} {
		ins, err := genstore.Generate(genstore.Profile{Seed: 12, Scan: scan})
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
		at := genstore.Base.Add(1000 * time.Hour) // every version visible
		var ids []int
		for _, id := range st.FillerIDs() {
			if id != fragment.RootFillerID {
				ids = append(ids, id)
			}
		}
		if len(ids) < 3 {
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
		passCost := func(n int) int64 { return int64(st.LookupCost(n)) }

		// one read of each kind; want states, per implementation and cache
		// state, the charges of running it once
		type read struct {
			name string
			run  func(fragment.Access) []*xmldom.Node
			want func(kind fragment.AccessKind, cached, warm bool, els []*xmldom.Node) charges
			// elements, when set, spells out what the read returns
			elements string
		}
		two := twoTSIDStore(t, scan)
		perID := func(els []*xmldom.Node, n int, cached, warm bool) charges {
			// one hole and one cached pass per id
			c := charges{holes: int64(n)}
			switch {
			case warm:
				c.hits = int64(n)
			case scan:
				c.fillers = int64(n) * passCost(0)
			default:
				c.fillers = int64(len(els))
			}
			if cached && !warm {
				c.misses = int64(n)
			}
			return c
		}
		dupIDs := []int{ids[1], ids[0], ids[1], 1 << 20, ids[2], ids[0]}
		reads := []read{
			{
				name: "filler",
				run: func(a fragment.Access) []*xmldom.Node {
					var out []*xmldom.Node
					for _, id := range ids {
						out = append(out, a.Filler(st, id, true, nil)...)
					}
					return out
				},
				want: func(kind fragment.AccessKind, cached, warm bool, els []*xmldom.Node) charges {
					return perID(els, len(ids), cached, warm)
				},
			},
			{
				name: "filler-no-hole",
				run: func(a fragment.Access) []*xmldom.Node {
					return a.Filler(st, fragment.RootFillerID, false, nil)
				},
				want: func(kind fragment.AccessKind, _, _ bool, els []*xmldom.Node) charges {
					// the root is reached without a hole: no hole counted,
					// and the pass is not memoized
					return charges{fillers: passCost(len(els))}
				},
			},
			{
				name: "fillers",
				run:  func(a fragment.Access) []*xmldom.Node { return a.Fillers(st, ids, nil, fragment.Window{}) },
				want: func(kind fragment.AccessKind, cached, warm bool, els []*xmldom.Node) charges {
					if kind == fragment.LogScanAccess {
						return perID(els, len(ids), cached, warm)
					}
					// one pass for the whole batch
					c := charges{holes: int64(len(ids))}
					if warm {
						c.hits = int64(len(ids))
						return c
					}
					c.fillers = passCost(len(els))
					if cached {
						c.misses = int64(len(ids))
					}
					return c
				},
			},
			{
				name: "fillers-repeated-and-unknown-ids",
				run:  func(a fragment.Access) []*xmldom.Node { return a.Fillers(st, dupIDs, nil, fragment.Window{}) },
			},
			{
				name: "by-tsid",
				run: func(a fragment.Access) []*xmldom.Node {
					var out []*xmldom.Node
					for _, tsid := range tsids {
						out = append(out, a.ByTSID(st, tsid, nil)...)
					}
					return out
				},
				want: func(kind fragment.AccessKind, cached, warm bool, els []*xmldom.Node) charges {
					n := int64(len(tsids))
					c := charges{tsidLookups: n}
					switch {
					case warm:
						c.hits = n
					case scan:
						c.fillers = n * passCost(0)
					default:
						c.fillers = int64(len(els))
					}
					if cached && !warm {
						c.misses = n
					}
					return c
				},
			},
			{
				// a read by tsid returns the versions carrying the tsid, and
				// only those; a version's lifespan is closed by the filler's
				// next version, whichever tsid that one carries
				name: "by-tsid-of-a-filler-id-under-two-tsids",
				run: func(a fragment.Access) []*xmldom.Node {
					return append(a.ByTSID(two, 2, nil), a.ByTSID(two, 3, nil)...)
				},
				elements: `<a vtFrom="2004-01-01T00:00:00" vtTo="2004-01-01T01:00:00">one</a>
<a vtFrom="2004-01-01T02:00:00" vtTo="now">three</a>
<b vtFrom="2004-01-01T01:00:00" vtTo="2004-01-01T02:00:00">two</b>
`,
			},
		}
		for _, rd := range reads {
			reference := render(rd.run(fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: at})))
			if reference == "" {
				t.Fatalf("scan=%v %s: reference read is empty", scan, rd.name)
			}
			if rd.elements != "" && reference != rd.elements {
				t.Errorf("scan=%v %s: the log scan returned\n%s\nwant\n%s", scan, rd.name, reference, rd.elements)
			}
			for _, k := range kinds {
				for _, state := range []string{"nil", "cold", "warm"} {
					name := fmt.Sprintf("scan=%v/%s/%s/cache-%s", scan, rd.name, k.name, state)
					var cache *fragment.Cache
					if state != "nil" {
						cache = fragment.NewCache(1 << 16)
					}
					if state == "warm" {
						rd.run(fragment.NewAccess(k.kind, fragment.Eval{At: at, Cache: cache}))
					}
					stats := &obs.EvalStats{}
					els := rd.run(fragment.NewAccess(k.kind, fragment.Eval{At: at, Stats: stats, Cache: cache}))
					if got := render(els); got != reference {
						t.Errorf("%s: elements differ from the log scan's:\n%s\nwant:\n%s", name, got, reference)
					}
					if rd.want == nil {
						continue
					}
					if got, want := chargesOf(stats), rd.want(k.kind, cache != nil, state == "warm", els); got != want {
						t.Errorf("%s: charged %+v, want %+v", name, got, want)
					}
				}
			}
		}
		// an incremental unit's read — a filler reached without a hole — asks
		// its filter once per visible version, in validTime order, whatever
		// the filter answers, so that a unit can select its versions by
		// position; and it is charged what the unfiltered read is, cache or
		// not
		multi, hidden := 0, 0
		for _, k := range kinds {
			for _, when := range []time.Time{ins.Instants[1], at} {
				for _, cache := range []*fragment.Cache{nil, fragment.NewCache(1 << 16)} {
					for _, id := range ids {
						name := fmt.Sprintf("scan=%v/unit-read/%s/filler %d at %s/cache=%v", scan, k.name, id, when.Format(time.DateTime), cache != nil)
						var visible []*xmldom.Node
						for _, v := range st.Versions(id) {
							if !v.ValidTime.After(when) {
								visible = append(visible, v.Payload)
							} else {
								hidden++
							}
						}
						if len(visible) > 1 {
							multi++
						}
						plain, filtered := &obs.EvalStats{}, &obs.EvalStats{}
						all := fragment.NewAccess(k.kind, fragment.Eval{At: when, Stats: plain, Cache: cache}).Filler(st, id, false, nil)
						var asked []*xmldom.Node
						odd := func(v fragment.Version) bool { asked = append(asked, v.Payload()); return len(asked)%2 == 1 }
						kept := fragment.NewAccess(k.kind, fragment.Eval{At: when, Stats: filtered, Cache: cache}).Filler(st, id, false, odd)
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
		}
		if multi == 0 || hidden == 0 {
			t.Fatalf("scan=%v: unit reads met %d fillers of several visible versions and %d versions not yet visible: the row tests nothing", scan, multi, hidden)
		}
		// the census EXPLAIN predicts tsid reads from is what they return
		for _, tsid := range tsids {
			_, versions := st.TSIDFillers(tsid)
			if got := len(fragment.NewAccess(fragment.TSIDIndexAccess, fragment.Eval{At: at}).ByTSID(st, tsid, nil)); got != versions {
				t.Errorf("scan=%v tsid %d: census predicts %d versions, read returned %d", scan, tsid, versions, got)
			}
		}
	}
}

// TestAccessFilter: a read with a filter returns what the same read
// without one returns, less the versions the filter turns away — whichever
// index serves it, cached or not — and is charged the unfiltered read's
// access cost: the filter is asked about every version examined, and only
// the constructed nodes follow what it kept (a cache miss builds, and
// memoizes, every version's top all the same).
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
			"filler": func(a fragment.Access, keep fragment.Filter) (out []*xmldom.Node) {
				for _, id := range ids {
					out = append(out, a.Filler(st, id, true, keep)...)
				}
				return out
			},
			"fillers": func(a fragment.Access, keep fragment.Filter) []*xmldom.Node {
				return a.Fillers(st, ids, keep, fragment.Window{})
			},
			"bytsid": func(a fragment.Access, keep fragment.Filter) (out []*xmldom.Node) {
				for _, tsid := range tsids {
					out = append(out, a.ByTSID(st, tsid, keep)...)
				}
				return out
			},
		}
		for name, run := range reads {
			for _, kind := range kinds {
				for _, state := range []string{"nil", "cold", "warm"} {
					name := fmt.Sprintf("scan=%v/%s/%d/cache-%s", scan, name, kind, state)
					caches := [2]*fragment.Cache{}
					for i := range caches {
						if state != "nil" {
							caches[i] = fragment.NewCache(1 << 16)
						}
						if state == "warm" {
							run(fragment.NewAccess(kind, fragment.Eval{At: at, Cache: caches[i]}), nil)
						}
					}
					plain, filtered := &obs.EvalStats{}, &obs.EvalStats{}
					all := run(fragment.NewAccess(kind, fragment.Eval{At: at, Stats: plain, Cache: caches[0]}), nil)
					asked := 0
					kept := run(fragment.NewAccess(kind, fragment.Eval{At: at, Stats: filtered, Cache: caches[1]}),
						func(v fragment.Version) bool {
							n := v.Payload()
							asked++
							if _, stamped := n.Attr("vtFrom"); stamped != (state != "nil") {
								t.Errorf("%s: filter ran on a node with vtFrom stamped = %v", name, stamped)
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
					built := int64(len(kept))
					switch {
					case state == "nil":
					case state == "cold":
						built = int64(len(all))
					default:
						built = 0
					}
					if filtered.NodesConstructed != built {
						t.Errorf("%s: %d nodes constructed, want %d", name, filtered.NodesConstructed, built)
					}
				}
			}
		}
	}
}

// TestAccessWindow: a windowed read returns, group by group, the positions
// of its window among the versions the unwindowed read of the group returns
// — whichever index serves it, cached or not — rewrites Ends to where each
// group ends in its output, and is charged the unwindowed read's access
// cost; uncached, it builds only what it returns.
func TestAccessWindow(t *testing.T) {
	kinds := []fragment.AccessKind{fragment.LogScanAccess, fragment.TSIDIndexAccess}
	windows := map[string]fragment.Window{
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
					group := fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: at}).Fillers(st, ids[lo:hi], keep, fragment.Window{})
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
				if total := len(fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: at}).Fillers(st, ids, keep, fragment.Window{})); name == "[1]" && (len(want) < 2 || len(want) == total) {
					t.Fatalf("scan=%v: [1] keeps %d of %d versions, the case tests nothing", scan, len(want), total)
				}
				for _, kind := range kinds {
					for _, state := range []string{"nil", "cold", "warm"} {
						name := fmt.Sprintf("scan=%v/%s/filter=%v/%d/cache-%s", scan, name, keep != nil, kind, state)
						caches := [2]*fragment.Cache{}
						for i := range caches {
							if state != "nil" {
								caches[i] = fragment.NewCache(1 << 16)
							}
							if state == "warm" {
								fragment.NewAccess(kind, fragment.Eval{At: at, Cache: caches[i]}).Fillers(st, ids, nil, fragment.Window{})
							}
						}
						whole, windowed := &obs.EvalStats{}, &obs.EvalStats{}
						all := fragment.NewAccess(kind, fragment.Eval{At: at, Stats: whole, Cache: caches[0]}).Fillers(st, ids, keep, fragment.Window{})
						w.Ends = append([]int(nil), ends...)
						got := fragment.NewAccess(kind, fragment.Eval{At: at, Stats: windowed, Cache: caches[1]}).Fillers(st, ids, keep, w)
						if render(got) != render(want) {
							t.Errorf("%s: windowed read returned\n%s\nwant\n%s", name, render(got), render(want))
						}
						if fmt.Sprint(w.Ends) != fmt.Sprint(wantEnds) {
							t.Errorf("%s: Ends rewritten to %v, want %v", name, w.Ends, wantEnds)
						}
						if a, b := chargesOf(windowed), chargesOf(whole); a != b {
							t.Errorf("%s: access cost with the window %+v, without %+v", name, a, b)
						}
						built := int64(len(got))
						switch {
						case state == "nil":
						case state == "cold":
							built = whole.NodesConstructed
						default:
							built = 0
						}
						if windowed.NodesConstructed != built {
							t.Errorf("%s: %d nodes constructed, want %d (%d unwindowed)", name, windowed.NodesConstructed, built, len(all))
						}
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
	reads := map[string]func() []*xmldom.Node{
		"fillers":  func() []*xmldom.Node { return a.Fillers(st, ids, nil, fragment.Window{}) },
		"filtered": func() []*xmldom.Node { return a.Fillers(st, ids, even, fragment.Window{}) },
		"windowed": func() []*xmldom.Node {
			return a.Fillers(st, ids, nil, fragment.Window{From: 1, To: 2, Ends: []int{len(ids) / 2, len(ids)}})
		},
		"bytsid": func() (out []*xmldom.Node) {
			for _, tag := range ins.Structure.Tags() {
				if els := a.ByTSID(st, tag.ID, nil); len(els) > len(out) {
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

// TestChargeFillersChargesTheRead: charging a child step's read without
// making it moves every counter and the budget's steps exactly as making
// it does, under every access implementation, on indexed and scan stores,
// with versions ahead of the instant and an id nothing is stored under.
func TestChargeFillersChargesTheRead(t *testing.T) {
	for _, scan := range []bool{false, true} {
		ins, err := genstore.Generate(genstore.Profile{Seed: 12, Scan: scan, Reannounce: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ins.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		ids := append(st.FillerIDs()[1:], 1<<20)
		for _, at := range []time.Time{genstore.Base.Add(6 * time.Hour), genstore.Base.Add(1000 * time.Hour)} {
			for _, kind := range []fragment.AccessKind{fragment.LogScanAccess, fragment.TSIDIndexAccess} {
				var read, charged obs.EvalStats
				var readBudget, chargedBudget budget.Budget
				fragment.NewAccess(kind, fragment.Eval{At: at, Stats: &read, Budget: &readBudget}).Fillers(st, ids, nil, fragment.Window{})
				fragment.NewAccess(kind, fragment.Eval{At: at, Stats: &charged, Budget: &chargedBudget}).ChargeFillers(st, ids)
				r, _, _ := readBudget.Used()
				c, _, _ := chargedBudget.Used()
				if read != charged || r != c {
					t.Errorf("scan=%v kind %d at %s: the read charged\n%+v, %d steps\ncharging it charged\n%+v, %d steps", scan, kind, at, read, r, charged, c)
				}
			}
		}
	}
}

// TestFillersEachIsTheCallsInTurn: one FillersEach read of several id sets,
// ids repeated across them, returns what a Fillers call per set returns in
// turn, with the same windows per set, charges nothing itself, and
// ChargeEach charges each set what its call charged. A cache or a pass per
// hole reads nothing and says so.
func TestFillersEachIsTheCallsInTurn(t *testing.T) {
	windows := map[string]fragment.Window{
		"every":    {From: 1, To: 1 << 30},
		"[1]":      {From: 1, To: 1},
		"[last()]": {Last: true},
		"[<=2]":    {From: 1, To: 2},
	}
	for _, scan := range []bool{false, true} {
		ins, err := genstore.Generate(genstore.Profile{Seed: 12, Scan: scan, Reannounce: true})
		if err != nil {
			t.Fatal(err)
		}
		st, err := ins.NewStore()
		if err != nil {
			t.Fatal(err)
		}
		fids := st.FillerIDs()[1:]
		sets := [][]int{fids[0:3], fids[1:4], fids[0:3], fids[5:6], fids[2:8]}
		var ids []int
		for _, set := range sets {
			ids = append(ids, set...)
		}
		for _, at := range []time.Time{genstore.Base.Add(6 * time.Hour), genstore.Base.Add(1000 * time.Hour)} {
			kind := fragment.TSIDIndexAccess
			for name, w := range windows {
				name := fmt.Sprintf("scan=%v/%d/%s/at=%s", scan, kind, name, at)
				var want []*xmldom.Node
				var wantEnds []int
				var calls obs.EvalStats
				for _, set := range sets {
					w.Ends = []int{len(set)}
					want = append(want, fragment.NewAccess(kind, fragment.Eval{At: at, Stats: &calls}).Fillers(st, set, nil, w)...)
					wantEnds = append(wantEnds, len(want))
				}
				w.Ends, w.Examined = nil, make([]int, len(sets))
				end := 0
				for _, set := range sets {
					end += len(set)
					w.Ends = append(w.Ends, end)
				}
				var each obs.EvalStats
				acc := fragment.NewAccess(kind, fragment.Eval{At: at, Stats: &each})
				got, ok := acc.FillersEach(st, ids, w)
				if !ok {
					t.Fatalf("%s: the index reads the sets at once", name)
				}
				if render(got) != render(want) || fmt.Sprint(w.Ends) != fmt.Sprint(wantEnds) {
					t.Fatalf("%s: read\n%s%v\nthe calls in turn\n%s%v", name, render(got), w.Ends, render(want), wantEnds)
				}
				if each != (obs.EvalStats{}) {
					t.Errorf("%s: the read charged %+v", name, each)
				}
				lo := 0
				for g, set := range sets {
					acc.ChargeEach(st, len(set), w.Examined[g], w.Ends[g]-lo)
					lo = w.Ends[g]
				}
				if each != calls {
					t.Errorf("%s: charged\n%+v\nthe calls charged\n%+v", name, each, calls)
				}
			}
		}
		for _, acc := range []fragment.Access{
			fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{}),
			fragment.NewAccess(fragment.TSIDIndexAccess, fragment.Eval{Cache: fragment.NewCache(64)}),
		} {
			if els, ok := acc.FillersEach(st, ids, fragment.Window{From: 1, To: 1, Ends: []int{len(ids)}}); ok || els != nil {
				t.Errorf("scan=%v %T: read %d versions at once", scan, acc, len(els))
			}
		}
	}
}
