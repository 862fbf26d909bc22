package inc

import (
	"maps"
	"testing"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
)

// On a re-announcing history decoded as a client decodes it — each
// re-announcement the delta frame a server seals over the version before,
// linked to it in the store — the containment facts a seeded engine holds
// equal those of a walk of every version's whole hole list, and ingesting a
// re-announcement walks its new hole and none of the ones it keeps.
func TestDeltaIngestWalksOnlyNewHoles(t *testing.T) {
	checked := 0
	for seed := int64(1); seed <= 6; seed++ {
		ins, err := genstore.Generate(genstore.Profile{Seed: seed, Reannounce: true})
		if err != nil {
			t.Fatal(err)
		}
		st := fragment.NewStore(ins.Structure)
		published := map[int]*fragment.Fragment{}
		var dec xmldom.Decoder
		var deltas []*fragment.Fragment
		for _, f := range ins.Fragments {
			sealed, delta := f.SealedOver(published[f.FillerID])
			published[f.FillerID] = f
			d, err := fragment.ParseStored(&dec, sealed.String())
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Add(d); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if delta {
				deltas = append(deltas, d)
			}
		}

		// the facts of every version's whole hole list
		wantParent, wantTSID := map[int]int{}, map[int]int{}
		for _, fid := range st.FillerIDs() {
			for _, v := range st.Versions(fid) {
				wantTSID[v.FillerID] = v.TSID
				v.EachHole(func(hid, ht int) bool {
					wantParent[hid] = v.FillerID
					if ht > 0 {
						wantTSID[hid] = ht
					}
					return true
				})
			}
		}

		rt := xcql.NewRuntime()
		rt.RegisterStream("s", st)
		e := New(rt.MustCompile(ins.Queries[0].Src, xcql.QaCPlus))
		if e.store != st {
			t.Fatalf("seed %d: the engine reads no store", seed)
		}
		e.rebuildContainment(genstore.Base)
		if e.fellBack {
			t.Fatalf("seed %d: the engine fell back", seed)
		}
		if !maps.Equal(e.parentOf, wantParent) || !maps.Equal(e.tsidOf, wantTSID) {
			t.Fatalf("seed %d: recorded parents %v and tsids %v, a whole walk %v and %v", seed, e.parentOf, e.tsidOf, wantParent, wantTSID)
		}

		// what each re-announcement adds to its predecessor's holes, and
		// nothing else, is what ingesting it records
		for _, d := range deltas {
			prev, _ := d.Predecessor()
			if prev == nil {
				t.Fatalf("seed %d: filler %d's delta is not linked", seed, d.FillerID)
			}
			kept := map[int]bool{}
			prev.EachHole(func(hid, _ int) bool { kept[hid] = true; return true })
			want := map[int]int{}
			d.EachHole(func(hid, _ int) bool {
				if !kept[hid] {
					want[hid] = d.FillerID
				}
				return true
			})
			if len(kept) == 0 || len(want) != 1 {
				continue // a first announcement, or not the one-hole shape
			}
			clear(e.parentOf)
			clear(e.tsidOf)
			if err := e.ingest(d); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(e.parentOf, want) {
				t.Fatalf("seed %d: ingesting filler %d's re-announcement over %d kept holes recorded %v, want its new hole %v",
					seed, d.FillerID, len(kept), e.parentOf, want)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("%d re-announcements over kept holes checked, want at least 10", checked)
	}
	t.Logf("%d re-announcements over kept holes checked", checked)
}
