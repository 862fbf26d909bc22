package fragment

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// TestFirstReadBuildsOneTree: decoding builds nothing, and concurrent first
// reads of a decoded payload all get the one tree a fresh parse of the
// frame builds (run with -race).
func TestFirstReadBuildsOneTree(t *testing.T) {
	const frame = `<filler id="3" tsid="2" validTime="2003-02-28T23:59:59" seq="9"><account id="a1"><customer>C</customer><hole id="4" tsid="4"/><x><hole id="5" tsid="5"/></x></account></filler>`
	f, err := decodeKept(new(xmldom.Decoder), frame+"<!-- after -->")
	if err != nil {
		t.Fatal(err)
	}
	if f.Payload != nil || f.enc.lazy().tree.Load() != nil {
		t.Fatal("decoding built the payload")
	}
	if f.String() != frame {
		t.Fatalf("wire form %q, want the element as it arrived", f)
	}
	var holes [][2]int
	f.EachHole(func(id, tsid int) bool { holes = append(holes, [2]int{id, tsid}); return true })
	if len(holes) != 2 || holes[0] != [2]int{4, 4} || holes[1] != [2]int{5, 5} || f.enc.lazy().tree.Load() != nil {
		t.Fatalf("holes %v read off the frame (built: %v)", holes, f.enc.lazy().tree.Load() != nil)
	}
	const readers = 16
	got := make([]*xmldom.Node, readers)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = f.Tree()
		}()
	}
	start.Done()
	done.Wait()
	want, err := decodeFresh(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range got {
		if n != got[0] {
			t.Fatalf("reader %d got another tree", i)
		}
	}
	if !got[0].Equal(want.Payload) {
		t.Fatalf("built %s, a fresh parse builds %s", got[0], want.Payload)
	}
}

// TestReadBesideAddOfNextVersion: the first read of a decoded version —
// the one that builds its payload — racing Store.Add of the same filler's
// next version returns the tops a quiet read of the same instant returns
// (run with -race: the build and the Add's read of the next frame's tag
// share the store).
func TestReadBesideAddOfNextVersion(t *testing.T) {
	structure := tagstruct.MustParseString(`<stream:structure><tag type="temporal" id="4" name="creditLimit"><tag type="event" id="5" name="charge"/></tag></stream:structure>`)
	base := time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)
	version := func(i int) *Fragment {
		t.Helper()
		f, err := decodeKept(new(xmldom.Decoder), fmt.Sprintf(
			`<filler id="7" tsid="4" validTime="%s"><creditLimit currency="EUR">%d<hole id="%d" tsid="5"/></creditLimit></filler>`,
			base.Add(time.Duration(i)*time.Minute).Format(xtime.Layout), 1000+i, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	read := func(st *Store, at time.Time) string {
		var b strings.Builder
		tops, _ := NewAccess(TSIDIndexAccess, Eval{At: at}).Read(st, Read{Source: FromFiller, ID: 7})
		for _, top := range tops {
			b.WriteString(top.String())
		}
		return b.String()
	}
	quiet, busy := NewStore(structure), NewStore(structure)
	if err := busy.Add(version(0)); err != nil {
		t.Fatal(err)
	}
	for i := range 64 {
		at := base.Add(time.Duration(i) * time.Minute)
		if err := quiet.Add(version(i)); err != nil {
			t.Fatal(err)
		}
		want := read(quiet, at)
		next := version(i + 1)
		var got string
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			got = read(busy, at)
		}()
		if err := busy.Add(next); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if got != want {
			t.Fatalf("version %d read beside the next one's Add:\n%s\nquietly:\n%s", i, got, want)
		}
	}
}

// TestFirstReadsOfConsecutiveVersionsRace: the first reads of a filler's
// versions k and k+1 race — version k+1's build looks for version k's tree
// while version k builds it — and each gets the tree a fresh parse of its
// frame builds, whichever finished first (run with -race: the build of one
// version reads the other's).
func TestFirstReadsOfConsecutiveVersionsRace(t *testing.T) {
	structure := tagstruct.MustParseString(`<stream:structure><tag type="temporal" id="2" name="account"><tag type="event" id="5" name="transaction"/></tag></stream:structure>`)
	base := time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)
	const versions = 16
	var frames []string
	holes := ""
	for i := range versions {
		holes += fmt.Sprintf(`<hole id="%d" tsid="5"/>`, 100+i)
		frames = append(frames, fmt.Sprintf(`<filler id="7" tsid="2" validTime="%s"><account id="a"><customer>C</customer>%s</account></filler>`,
			base.Add(time.Duration(i)*time.Minute).Format(xtime.Layout), holes))
	}
	for range 8 {
		st := NewStore(structure)
		for _, frame := range frames {
			f, err := decodeKept(new(xmldom.Decoder), frame)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		vs := st.Versions(7)
		for k := 0; k+1 < versions; k += 2 {
			var wg sync.WaitGroup
			for _, f := range vs[k : k+2] {
				wg.Add(1)
				go func() {
					defer wg.Done()
					st.tree(f)
				}()
			}
			wg.Wait()
		}
		for k, f := range vs {
			want, err := decodeFresh(frames[k])
			if err != nil {
				t.Fatal(err)
			}
			if !f.Tree().Equal(want.Payload) {
				t.Fatalf("version %d built %s, a fresh parse builds %s", k, f.Tree(), want.Payload)
			}
		}
	}
}

// A fragment built in memory writes its wire form once, into one
// allocation of its exact size: the stamps on the stack, the payload
// through the serializer's length pass.
func TestStringAllocatesOnce(t *testing.T) {
	payload := xmldom.MustParseString(`<transaction id="t1"><vendor>V &amp; W</vendor><amount>7</amount></transaction>`).Root()
	f := New(7, 5, time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC), payload).WithSeq(3)
	if got := testing.AllocsPerRun(20, func() { _ = f.String() }); got != 1 {
		t.Errorf("Fragment.String: %v allocations, want 1", got)
	}
	if got, want := f.String(), f.ToXML().String(); got != want {
		t.Errorf("String %q, ToXML().String() %q", got, want)
	}
	if empty := New(8, 5, f.ValidTime, nil); empty.String() != empty.ToXML().String() {
		t.Errorf("without a payload: String %q, ToXML().String() %q", empty, empty.ToXML())
	}
}
