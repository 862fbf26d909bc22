package fragment_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/obs"
	"xcql/internal/xmldom"
)

// charges are the counters an access read may move; a contract row
// states all of them, so what a read must NOT move is pinned at zero.
type charges struct {
	holes, fillers, tsidLookups, labelLookups, hits, misses int64
}

func chargesOf(s *obs.EvalStats) charges {
	return charges{s.HolesResolved, s.FillersScanned, s.TSIDLookups, s.LabelRangeLookups, s.CacheHits, s.CacheMisses}
}

func render(els []*xmldom.Node) string {
	var b strings.Builder
	for _, el := range els {
		b.WriteString(el.String())
		b.WriteByte('\n')
	}
	return b.String()
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
		{"label-index", fragment.LabelIndexAccess},
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
		}
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
						out = append(out, a.Filler(st, id, true)...)
					}
					return out
				},
				want: func(kind fragment.AccessKind, cached, warm bool, els []*xmldom.Node) charges {
					if kind == fragment.LabelIndexAccess {
						return charges{labelLookups: int64(len(ids))}
					}
					return perID(els, len(ids), cached, warm)
				},
			},
			{
				name: "filler-no-hole",
				run: func(a fragment.Access) []*xmldom.Node {
					return a.Filler(st, fragment.RootFillerID, false)
				},
				want: func(kind fragment.AccessKind, _, _ bool, els []*xmldom.Node) charges {
					if kind == fragment.LabelIndexAccess {
						return charges{labelLookups: 1}
					}
					// the root is reached without a hole: no hole counted,
					// and the pass is not memoized
					return charges{fillers: passCost(len(els))}
				},
			},
			{
				name: "fillers",
				run:  func(a fragment.Access) []*xmldom.Node { return a.Fillers(st, ids) },
				want: func(kind fragment.AccessKind, cached, warm bool, els []*xmldom.Node) charges {
					switch kind {
					case fragment.LabelIndexAccess:
						return charges{labelLookups: 1}
					case fragment.LogScanAccess:
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
				run:  func(a fragment.Access) []*xmldom.Node { return a.Fillers(st, dupIDs) },
			},
			{
				name: "by-tsid",
				run: func(a fragment.Access) []*xmldom.Node {
					var out []*xmldom.Node
					for _, tsid := range tsids {
						out = append(out, a.ByTSID(st, tsid)...)
					}
					return out
				},
				want: func(kind fragment.AccessKind, cached, warm bool, els []*xmldom.Node) charges {
					n := int64(len(tsids))
					if kind == fragment.LabelIndexAccess {
						return charges{labelLookups: n}
					}
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
		}
		for _, rd := range reads {
			reference := render(rd.run(fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: at})))
			if reference == "" {
				t.Fatalf("scan=%v %s: reference read is empty", scan, rd.name)
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
		// the census EXPLAIN predicts label reads from is what they return
		for _, tsid := range tsids {
			_, versions := st.Labels().TSIDCensus(tsid)
			if got := len(fragment.NewAccess(fragment.LabelIndexAccess, fragment.Eval{At: at}).ByTSID(st, tsid)); got != versions {
				t.Errorf("scan=%v tsid %d: census predicts %d versions, read returned %d", scan, tsid, versions, got)
			}
		}
	}
}
