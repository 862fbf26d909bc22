package fragment_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// decodedVersionsCeiling bounds what the trees of sharedVersions
// re-announced account versions hold (treeBytes), decoded or added in
// memory: 17 640 B decoded on linux/amd64 with each version holding the one
// before's hole nodes, and 83 760 B with a hole element of their own per
// hole, as the full forms build them.
const (
	sharedVersions         = 30
	decodedVersionsCeiling = 18_500
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
// sealed as a publishing server seals it — each version a delta frame over
// the one before — and decoded as a client receives it, builds each hole
// once: version k's tree holds version k−1's hole nodes, records version
// k−1 as its predecessor, and is the tree a fresh parse of the version's
// full form builds. The publisher's fragments added to a store in memory,
// each a full tree with hole nodes of its own, are stored in that same
// shape. A version that does not extend the one before (a reordered
// hole list, a hole with an extra attribute, a hole below a child element)
// travels in the full form and builds all its nodes. What the trees hold
// is held under a ceiling that one hole element per hole per version
// exceeds several times over.
func TestDecodedVersionsShareHoles(t *testing.T) {
	structure := tagstruct.MustParseString(genstore.CreditStructure)
	pub, _ := genstore.NewCreditPublisher(1)
	decoded, inMemory := fragment.NewStore(structure), fragment.NewStore(structure)
	var full []string
	var prev *fragment.Fragment
	var dec xmldom.Decoder
	for k := 1; k <= sharedVersions; k++ {
		announce, _ := pub.Charge(0, k, genstore.CreditBase.Add(time.Duration(k)*time.Minute))
		sealed, delta := announce.SealedOver(prev)
		if delta != (k > 1) {
			t.Fatalf("version %d sealed as a delta: %v", k, delta)
		}
		f, err := fragment.ParseStored(&dec, sealed.String())
		if err != nil {
			t.Fatal(err)
		}
		if err := decoded.Add(f); err != nil {
			t.Fatal(err)
		}
		if err := inMemory.Add(announce); err != nil {
			t.Fatal(err)
		}
		full, prev = append(full, announce.String()), announce
	}
	at := genstore.CreditBase.Add(time.Hour)
	for _, c := range []struct {
		name string
		st   *fragment.Store
	}{{"decoded", decoded}, {"in-memory", inMemory}} {
		readAll(t, c.st, 1, at)
		versions := c.st.Versions(1)
		trees, fullTrees := make([]*xmldom.Node, len(versions)), make([]*xmldom.Node, len(versions))
		for k, f := range versions {
			fresh, err := fragment.Parse(full[k])
			if err != nil {
				t.Fatal(err)
			}
			trees[k], fullTrees[k] = f.Tree(), fresh.Tree()
			if !f.Tree().Equal(fresh.Tree()) {
				t.Fatalf("%s: version %d built %s, a fresh parse %s", c.name, k, f.Tree(), fresh.Tree())
			}
			// a version linked in memory still spells its full form
			if c.st == inMemory && f.String() != full[k] {
				t.Fatalf("in-memory: version %d spells %s, its full form %s", k, f.String(), full[k])
			}
			hs := holesOf(f.Tree())
			if len(hs) != k+1 {
				t.Fatalf("%s: version %d has %d holes, want %d", c.name, k, len(hs), k+1)
			}
			if k == 0 {
				continue
			}
			if p, kept := f.Predecessor(); p != versions[k-1] || kept != len(versions[k-1].Tree().Children) {
				t.Fatalf("%s: version %d records predecessor %p keeping %d, want %p keeping %d", c.name, k, p, kept, versions[k-1], len(versions[k-1].Tree().Children))
			}
			for j, h := range holesOf(versions[k-1].Tree()) {
				if hs[j] != h {
					t.Fatalf("%s: hole %d of version %d is not version %d's node", c.name, j, k, k-1)
				}
			}
		}
		kept, unshared := treeBytes(trees), treeBytes(fullTrees)
		t.Logf("%d %s versions hold %d B of trees, their full forms %d B (ceiling %d B)", sharedVersions, c.name, kept, unshared, decodedVersionsCeiling)
		if kept > decodedVersionsCeiling {
			t.Errorf("%d %s versions hold %d B of trees, ceiling %d B", sharedVersions, c.name, kept, decodedVersionsCeiling)
		}
		// the measure tells sharing from its loss: the full forms' trees are
		// several ceilings
		if unshared < 3*decodedVersionsCeiling {
			t.Errorf("the full forms hold %d B of trees, under three ceilings of %d B", unshared, decodedVersionsCeiling)
		}
	}

	// versions that do not extend the one before travel whole: they share
	// no node with it
	hole := func(id int) string { return fmt.Sprintf(`<hole id="%d" tsid="5"/>`, id) }
	for _, c := range []struct {
		name       string
		prev, next string
	}{
		{"reordered", hole(10) + hole(11) + hole(12), hole(11) + hole(10) + hole(12) + hole(13)},
		{"extra attribute", hole(10) + hole(11) + hole(12), hole(10) + `<hole id="11" tsid="5" x="y"/>` + hole(12) + hole(13)},
		{"nested", hole(10) + hole(11), hole(10) + `<customer>C<hole id="11" tsid="5"/></customer>` + hole(11) + hole(12)},
	} {
		t.Run(c.name, func(t *testing.T) {
			st := fragment.NewStore(structure)
			var fs []*fragment.Fragment
			var frames []string
			var prev *fragment.Fragment
			for i, holes := range []string{c.prev, c.next} {
				frame := fmt.Sprintf(`<filler id="1" tsid="2" validTime="%s"><account id="a">%s</account></filler>`,
					genstore.CreditBase.Add(time.Duration(i)*time.Minute).Format(xtime.Layout), holes)
				v, err := fragment.Parse(frame)
				if err != nil {
					t.Fatal(err)
				}
				sealed, delta := v.SealedOver(prev)
				if delta {
					t.Fatalf("version %d sealed as a delta over a version it does not extend", i)
				}
				f, err := fragment.ParseStored(&dec, sealed.String())
				if err != nil {
					t.Fatal(err)
				}
				if err := st.Add(f); err != nil {
					t.Fatal(err)
				}
				fs, frames, prev = append(fs, f), append(frames, frame), v
			}
			readAll(t, st, 1, at)
			fresh, _ := fragment.Parse(frames[1])
			if !fs[1].Tree().Equal(fresh.Tree()) {
				t.Fatalf("built %s, a fresh parse %s", fs[1].Tree(), fresh.Tree())
			}
			prevNodes := map[*xmldom.Node]bool{}
			fs[0].Tree().Walk(func(n *xmldom.Node) bool { prevNodes[n] = true; return true })
			fs[1].Tree().Walk(func(n *xmldom.Node) bool {
				if prevNodes[n] {
					t.Fatalf("<%s> is the version before's node", n.Name)
				}
				return true
			})
		})
	}
}

// treeBytes is what trees hold: each distinct node once, by pointer, with
// its attribute and child-list storage. Unlike the process heap it reads
// the same on every run.
func treeBytes(trees []*xmldom.Node) int64 {
	seen := map[*xmldom.Node]bool{}
	var n int64
	for _, tree := range trees {
		tree.Walk(func(m *xmldom.Node) bool {
			if seen[m] {
				return false // an immutable node's subtree is counted with it
			}
			seen[m] = true
			n += int64(unsafe.Sizeof(*m)) + int64(cap(m.Attrs))*int64(unsafe.Sizeof(xmldom.Attr{})) + int64(cap(m.Children))*int64(unsafe.Sizeof(m))
			return true
		})
	}
	return n
}

// TestFirstReadOfADeepDeltaBuildsItAlone: the first read of the newest of
// an account's re-announcements, none of them read before, builds that
// version and the full form under the chain, whose holes it holds — the
// children the deltas in between add built from their frames for it alone
// — and none of the versions in between: it allocates less than building
// the same version from its full form does, where building the chain
// would allocate each version's child list (quadratic in the history).
func TestFirstReadOfADeepDeltaBuildsItAlone(t *testing.T) {
	const versions = 300
	structure := tagstruct.MustParseString(genstore.CreditStructure)
	pub, _ := genstore.NewCreditPublisher(1)
	deltas, full := fragment.NewStore(structure), fragment.NewStore(structure)
	var prev *fragment.Fragment
	var dec xmldom.Decoder
	for k := 1; k <= versions; k++ {
		announce, _ := pub.Charge(0, k, genstore.CreditBase.Add(time.Duration(k)*time.Minute))
		sealed, _ := announce.SealedOver(prev)
		for st, wire := range map[*fragment.Store]string{deltas: sealed.String(), full: announce.String()} {
			f, err := fragment.ParseStored(&dec, wire)
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Add(f); err != nil {
				t.Fatal(err)
			}
		}
		prev = announce
	}
	var bytes [2]uint64
	for i, st := range []*fragment.Store{deltas, full} {
		vs := st.Versions(1)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		tree := vs[len(vs)-1].Tree()
		runtime.ReadMemStats(&after)
		bytes[i] = after.TotalAlloc - before.TotalAlloc
		if !tree.Equal(prev.Payload) {
			t.Fatalf("the newest version built %s, the publisher's %s", tree, prev.Payload)
		}
		// the first version, the one full form under the deltas, is built
		// for the newest to hold its holes
		for k, v := range vs[1 : len(vs)-1] {
			if fragment.Built(v) {
				t.Fatalf("reading the newest version built version %d", k+1)
			}
		}
	}
	t.Logf("first read of the newest of %d versions: %d B from delta frames, %d B from the full form", versions, bytes[0], bytes[1])
	if !raceEnabled && bytes[0] > bytes[1] {
		t.Errorf("the newest delta's first read allocated %d B, its full form's %d B", bytes[0], bytes[1])
	}
}
