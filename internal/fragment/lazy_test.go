package fragment

import (
	"sync"
	"testing"

	"xcql/internal/xmldom"
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
