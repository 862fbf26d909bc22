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
// inserts into the tsid's id list), and duplicates followed by Coalesce (the
// index replaced whole). Every group a read returns must be a history: no
// nil, validTime order, each lifespan closed by the next version's, no
// version twice unless the writer stored it twice. The filter takes the
// store's read lock itself, so a read that ran it under the lock would
// deadlock against the waiting writer. Run with -race.
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
			// reader can tell which history an element belongs to; the writer
			// stores twice only the versions whose number divides by dupEvery
			const writes, topID = 300, 10000
			base := ts("2003-02-01T00:00:00")
			limit := func(fid, seq int, at time.Time) *Fragment {
				return New(fid, 4, at, xmldom.TextElem("creditLimit", fmt.Sprintf("%d/%d", fid, seq)))
			}
			var wg sync.WaitGroup
			var done atomic.Bool
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer done.Store(true)
				add := func(f *Fragment) {
					if err := st.Add(f); err != nil {
						t.Error(err)
					}
				}
				for i := 0; i < writes; i++ {
					at := base.Add(time.Duration(2*i) * time.Second)
					add(limit(2, i, at))
					if i%3 == 1 {
						add(limit(2, -i, at.Add(-3*time.Second))) // dated between two stored versions
					}
					add(limit(topID-i, 0, at)) // an id below every id stored under the tsid but 2
					if dup := i - dupEvery + 1; dup%dupEvery == 0 {
						add(limit(2, dup, base.Add(time.Duration(2*dup)*time.Second)))
						if removed := st.Coalesce(); removed != 1 {
							t.Errorf("coalesce after write %d removed %d duplicates, want 1", i, removed)
						}
					}
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
			if got, want := len(st.Versions(2)), writes+writes/3; got != want {
				t.Fatalf("filler 2 holds %d versions, want %d", got, want)
			}
			if fids, n := st.TSIDFillers(4); len(fids) != writes+1 || n != 2*writes+writes/3 {
				t.Fatalf("tsid 4 holds %d fillers and %d versions, want %d and %d", len(fids), n, writes+1, 2*writes+writes/3)
			}
		})
	}
}

const dupEvery = 50

// checkHistories checks what one read returned while the writer ran: the
// elements group by filler, fillers ascending, and each group is one
// filler's history.
func checkHistories(t *testing.T, name string, els []*xmldom.Node) {
	fid, prevTo, prevText, copies := -1, "now", "", 0
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
		if copies++; text != prevText {
			copies = 1
		}
		if copies > 2 || (copies == 2 && (seq < 0 || seq%dupEvery != 0)) {
			t.Errorf("%s: filler %d: version %d returned %d times", name, id, seq, copies)
		}
		fid, prevTo, prevText = id, to, text
	}
	if prevTo != "now" {
		t.Errorf("%s: filler %d's last version ends at %s, not now", name, fid, prevTo)
	}
}
