package fragment_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// decodedVersionsCeiling bounds the heap the trees of sharedVersions
// re-announced account versions keep, ~15 % above what they keep when each
// version builds only the hole it adds (17 960 B on linux/amd64). Built
// with a hole element of their own per hole they keep Σk·160 B ≈ 74 KB
// more.
const (
	sharedVersions         = 30
	decodedVersionsCeiling = 20_700
)

// holesOf returns the holes among a payload's children, in order.
func holesOf(p *xmldom.Node) []*xmldom.Node {
	var hs []*xmldom.Node
	for _, c := range p.Children {
		if fragment.IsHole(c) {
			hs = append(hs, c)
		}
	}
	return hs
}

// readAll reads every version of filler fid visible at at through the
// store, which builds each decoded payload on its first read.
func readAll(t *testing.T, st *fragment.Store, fid int, at time.Time) {
	t.Helper()
	tops, _ := fragment.NewAccess(fragment.TSIDIndexAccess, fragment.Eval{At: at}).Read(st, fragment.Read{Source: fragment.FromFiller, ID: fid})
	if len(tops) != len(st.Versions(fid)) {
		t.Fatalf("read %d versions of filler %d, the store holds %d", len(tops), fid, len(st.Versions(fid)))
	}
}

// TestDecodedVersionsShareHoles: an account re-announced once per charge,
// decoded as a client receives it, builds each hole once — version k's
// tree holds version k−1's hole nodes for the holes the two lists have in
// common — and every tree is the one a fresh parse of its frame builds.
// What breaks the list's agreement (a reordered hole list, a hole with an
// extra attribute, a hole below a child element) builds its own nodes
// from there. The trees' heap is held under a ceiling that one hole
// element per hole per version exceeds several times over.
func TestDecodedVersionsShareHoles(t *testing.T) {
	structure := tagstruct.MustParseString(genstore.CreditStructure)
	pub, _ := genstore.NewCreditPublisher(1)
	st := fragment.NewStore(structure)
	var frames []string
	for k := 1; k <= sharedVersions; k++ {
		announce, _ := pub.Charge(0, k, genstore.CreditBase.Add(time.Duration(k)*time.Minute))
		frame := announce.String()
		f, err := fragment.Parse(frame)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame)
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	at := genstore.CreditBase.Add(time.Hour)
	before := retained()
	readAll(t, st, 1, at)
	after := retained()
	versions := st.Versions(1)
	for k, f := range versions {
		fresh, err := fragment.Parse(frames[k])
		if err != nil {
			t.Fatal(err)
		}
		if !f.Tree().Equal(fresh.Tree()) {
			t.Fatalf("version %d built %s, a fresh parse %s", k, f.Tree(), fresh.Tree())
		}
		hs := holesOf(f.Tree())
		if len(hs) != k+1 {
			t.Fatalf("version %d has %d holes, want %d", k, len(hs), k+1)
		}
		if k == 0 {
			continue
		}
		for j, h := range holesOf(versions[k-1].Tree()) {
			if hs[j] != h {
				t.Fatalf("hole %d of version %d is not version %d's node", j, k, k-1)
			}
		}
	}
	if kept := int64(after) - int64(before); kept > decodedVersionsCeiling {
		t.Errorf("%d decoded versions keep %d B of trees, ceiling %d B", sharedVersions, kept, decodedVersionsCeiling)
	}
	runtime.KeepAlive(st)

	// versions that do not extend the one before: each shares the holes
	// before the first that differs, where the lists still agree, and
	// builds the rest
	hole := func(id int) string { return fmt.Sprintf(`<hole id="%d" tsid="5"/>`, id) }
	for _, c := range []struct {
		name       string
		prev, next string
		shared     []bool // per hole of next, in order among the account's children
	}{
		{"reordered", hole(10) + hole(11) + hole(12), hole(11) + hole(10) + hole(12) + hole(13),
			[]bool{false, false, false, false}},
		{"extra attribute", hole(10) + hole(11) + hole(12), hole(10) + `<hole id="11" tsid="5" x="y"/>` + hole(12) + hole(13),
			[]bool{true, false, true, false}},
		{"nested", hole(10) + hole(11), hole(10) + `<customer>C<hole id="11" tsid="5"/></customer>` + hole(11) + hole(12),
			[]bool{true, true, false}},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := fragment.NewStore(structure)
			var fs []*fragment.Fragment
			var frames []string
			for i, holes := range []string{c.prev, c.next} {
				frame := fmt.Sprintf(`<filler id="1" tsid="2" validTime="%s"><account id="a">%s</account></filler>`,
					genstore.CreditBase.Add(time.Duration(i)*time.Minute).Format(xtime.Layout), holes)
				f, err := fragment.Parse(frame)
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Add(f); err != nil {
					t.Fatal(err)
				}
				fs, frames = append(fs, f), append(frames, frame)
			}
			readAll(t, st, 1, at)
			prev := map[*xmldom.Node]bool{}
			for _, h := range holesOf(fs[0].Tree()) {
				prev[h] = true
			}
			fresh, _ := fragment.Parse(frames[1])
			if !fs[1].Tree().Equal(fresh.Tree()) {
				t.Fatalf("built %s, a fresh parse %s", fs[1].Tree(), fresh.Tree())
			}
			var got []bool
			for _, h := range holesOf(fs[1].Tree()) {
				got = append(got, prev[h])
			}
			if fmt.Sprint(got) != fmt.Sprint(c.shared) {
				t.Errorf("holes shared with the version before: %v, want %v", got, c.shared)
			}
			if c.name == "nested" && prev[fs[1].Tree().Children[1].Children[1]] {
				t.Error("a hole below a child element is the version before's node")
			}
		})
	}
}

// retained is the heap in use after a collection.
func retained() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
