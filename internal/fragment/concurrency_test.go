package fragment

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xcql/internal/xmldom"
)

// TestStoreConcurrentReadersAndWriter exercises the store under the
// continuous-query pattern: one goroutine keeps writing while readers of
// all three access kinds read through a filter. The writer does everything
// the index has to absorb without moving what a reader holds: versions in
// validTime order (appends), versions dated before stored ones (mid-list
// inserts into a version group), filler ids below the stored ones (mid-list
// inserts into the tsid's id list). Every group a read returns must be a
// history: no nil, validTime order, each lifespan closed by the next
// version's, no version twice. The filter takes the store's read lock
// itself, so a read that ran it under the lock would deadlock against the
// waiting writer. Run with -race.
func TestStoreConcurrentReadersAndWriter(t *testing.T) {
	s := creditStruct(t)
	for _, scan := range []bool{false, true} {
		name := "indexed"
		if scan {
			name = "scan"
		}
		t.Run(name, func(t *testing.T) {
			var st *Store
			if scan {
				st = NewScanStore(s)
			} else {
				st = NewStore(s)
			}
			root := xmldom.MustParseString(`<creditAccounts><hole id="1" tsid="2"/></creditAccounts>`).Root()
			if err := st.Add(New(RootFillerID, 1, ts("2003-01-01T00:00:00"), root)); err != nil {
				t.Fatal(err)
			}
			acct := xmldom.MustParseString(`<account id="1"><customer>A</customer><hole id="2" tsid="4"/></account>`).Root()
			if err := st.Add(New(1, 2, ts("2003-01-01T00:00:00"), acct)); err != nil {
				t.Fatal(err)
			}

			// a creditLimit's text names its filler and its version, so a
			// reader can tell which history an element belongs to
			const writes, topID = 300, 10000
			base := ts("2003-02-01T00:00:00")
			limit := func(fid, seq int, at time.Time) *Fragment {
				return New(fid, 4, at, xmldom.TextElem("creditLimit", fmt.Sprintf("%d/%d", fid, seq)))
			}
			var wg sync.WaitGroup
			var done atomic.Bool
			adds := 2 // the root and the account
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				add := func(f *Fragment) {
					if err := st.Add(f); err != nil {
						t.Error(err)
					}
					adds++
				}
				for i := 0; i < writes; i++ {
					at := base.Add(time.Duration(2*i) * time.Second)
					add(limit(2, i, at))
					if i%3 == 1 {
						add(limit(2, -i, at.Add(-3*time.Second))) // dated between two stored versions
					}
					add(limit(topID-i, 0, at)) // an id below every id stored under the tsid but 2
				}
			}()

			at := ts("2004-01-01T00:00:00")
			ids := []int{2, topID - 2, topID - 1, topID}
			keep := func(v Version) bool { return st.Len() > 0 && v.Payload() != nil }
			for _, kind := range []AccessKind{LogScanAccess, TSIDIndexAccess} {
				for r := 0; r < 2; r++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						acc := NewAccess(kind, Eval{At: at})
						for i := 0; i < 50 || !done.Load(); i++ {
							holes, _ := acc.Read(st, Read{IDs: ids, Keep: keep})
							checkHistories(t, fmt.Sprintf("kind %d hole ids", kind), holes)
							byTSID, _ := acc.Read(st, Read{Source: FromTSID, ID: 4, Keep: keep})
							checkHistories(t, fmt.Sprintf("kind %d by tsid", kind), byTSID)
							_ = st.LatestVersion(2, at)
						}
					}()
				}
			}
			wg.Wait()
			if st.Len() != adds {
				t.Fatalf("store holds %d fragments after %d Adds", st.Len(), adds)
			}
			if got, want := len(st.Versions(2)), writes+writes/3; got != want {
				t.Fatalf("filler 2 holds %d versions, want %d", got, want)
			}
			if fids, n := st.TSIDFillers(4); len(fids) != writes+1 || n != 2*writes+writes/3 {
				t.Fatalf("tsid 4 holds %d fillers and %d versions, want %d and %d", len(fids), n, writes+1, 2*writes+writes/3)
			}
		})
	}
}

// checkHistories checks what one read returned while the writer ran: the
// elements group by filler, fillers ascending, and each group is one
// filler's history.
func checkHistories(t *testing.T, name string, els []*xmldom.Node) {
	fid, prevTo, prevText := -1, "now", ""
	for i, el := range els {
		if el == nil {
			t.Errorf("%s: element %d is nil", name, i)
			return
		}
		text := el.TrimmedText()
		owner, version, _ := strings.Cut(text, "/")
		id, _ := strconv.Atoi(owner)
		seq, _ := strconv.Atoi(version)
		from, to := el.AttrOr("vtFrom", ""), el.AttrOr("vtTo", "")
		switch {
		case id < fid:
			t.Errorf("%s: filler %d returned after filler %d", name, id, fid)
		case id > fid && prevTo != "now":
			t.Errorf("%s: filler %d's last version ends at %s, not now", name, fid, prevTo)
		case id == fid && from != prevTo:
			t.Errorf("%s: filler %d: version %d starts at %s, its predecessor ended at %s", name, id, seq, from, prevTo)
		}
		if to != "now" && to < from {
			t.Errorf("%s: filler %d: version %d runs backwards, [%s, %s]", name, id, seq, from, to)
		}
		if text == prevText {
			t.Errorf("%s: filler %d: version %d returned twice", name, id, seq)
		}
		fid, prevTo, prevText = id, to, text
	}
	if prevTo != "now" {
		t.Errorf("%s: filler %d's last version ends at %s, not now", name, fid, prevTo)
	}
}
