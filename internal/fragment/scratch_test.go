package fragment_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/xmldom"
)

// A read that borrows its notes of a Scratch returns and reports what the
// same read without one does, over a Scratch fresh or used by every read
// before it, and hands the notes back cleared: a kept Scratch keeps no
// version alive. A read made from inside another read's filter — on the
// same Access, while the outer read holds the notes — borrows none of
// them and changes nothing the outer read returns.
func TestScratchChangesNoRead(t *testing.T) {
	_, st := contractStore(t, false)
	at := genstore.Base.Add(1000 * time.Hour)
	ids := st.FillerIDs()[1:]
	ends := []int{len(ids) / 3, len(ids) / 2, len(ids)}
	reads := map[string]fragment.Read{
		"whole":     {IDs: ids},
		"groups":    {IDs: ids, Groups: groupsAt(ends...)},
		"each[1]":   {IDs: ids, Groups: groupsAt(ends...), EachGroup: true, From: 1, To: 1},
		"last":      {IDs: ids, Groups: groupsAt(ends...), Last: true},
		"bare":      {IDs: ids, Bare: true},
		"filtered":  {IDs: ids, Keep: func(v fragment.Version) bool { return v.Payload().AttrOr("k", "1") != "2" }},
		"filler":    {Source: fragment.FromFiller, ID: ids[0]},
		"hole":      {Source: fragment.FromHole, ID: ids[1]},
		"tsid":      {Source: fragment.FromTSID, ID: 2},
		"tsid-bare": {Source: fragment.FromTSID, ID: 2, Bare: true},
	}
	for _, kind := range []fragment.AccessKind{fragment.LogScanAccess, fragment.TSIDIndexAccess} {
		sc := &fragment.Scratch{}
		used := fragment.NewAccess(kind, fragment.Eval{At: at, Scratch: sc})
		for name, r := range reads {
			want, wantGroups := readOf(fragment.NewAccess(kind, fragment.Eval{At: at}), st, r)
			for round := range 2 {
				got, groups := readOf(used, st, r)
				if render(got) != render(want) || !slices.Equal(groups, wantGroups) {
					t.Errorf("%d/%s, round %d: the read over a scratch differs:\n%s%v\nwant\n%s%v", kind, name, round, render(got), groups, render(want), wantGroups)
				}
				if room, clean := fragment.KeptNotes(sc); !clean {
					t.Errorf("%d/%s: the scratch keeps notes in its %d slots", kind, name, room)
				}
			}
		}
		// a read from inside the filter of another, on the same Access
		var inner []string
		nested := fragment.Read{IDs: ids, Keep: func(v fragment.Version) bool {
			els, _ := used.Read(st, fragment.Read{IDs: ids[:3]})
			inner = append(inner, render(els))
			return true
		}}
		want, _ := readOf(fragment.NewAccess(kind, fragment.Eval{At: at}), st, fragment.Read{IDs: ids})
		innerWant, _ := readOf(fragment.NewAccess(kind, fragment.Eval{At: at}), st, fragment.Read{IDs: ids[:3]})
		if got, _ := readOf(used, st, nested); render(got) != render(want) {
			t.Errorf("%d: a read whose filter reads differs:\n%s\nwant\n%s", kind, render(got), render(want))
		}
		for i, got := range inner {
			if got != render(innerWant) {
				t.Fatalf("%d: the read made inside the filter, ask %d, differs:\n%s\nwant\n%s", kind, i, got, render(innerWant))
			}
		}
		if len(inner) == 0 {
			t.Errorf("%d: the filter was never asked", kind)
		}
	}
}

// A Scratch keeps a buffer given back up to its cap, and drops one past
// it; a nil Scratch lends nothing and keeps nothing.
func TestScratchCaps(t *testing.T) {
	notes, ids, groups := fragment.Caps[0], fragment.Caps[1], fragment.Caps[2]
	for _, c := range []struct {
		room, keep int
	}{{ids, ids}, {ids + 1, 0}} {
		sc := &fragment.Scratch{}
		sc.GiveIDs(make([]int, 5, c.room))
		if got := cap(sc.IDs()); got != c.keep {
			t.Errorf("ids with room for %d: kept %d, want %d", c.room, got, c.keep)
		}
		if sc.IDs() != nil {
			t.Errorf("ids lent twice")
		}
	}
	for _, c := range []struct {
		room, keep int
	}{{groups, groups}, {groups + 1, 0}} {
		sc := &fragment.Scratch{}
		sc.GiveGroups(make([]fragment.Group, 5, c.room))
		if got := cap(sc.Groups()); got != c.keep {
			t.Errorf("groups with room for %d: kept %d, want %d", c.room, got, c.keep)
		}
	}
	var none *fragment.Scratch
	none.GiveIDs(make([]int, 0, 8))
	none.GiveGroups(make([]fragment.Group, 0, 8))
	if none.IDs() != nil || none.Groups() != nil {
		t.Error("a nil Scratch lent a buffer")
	}
	// a read keeping more versions than the notes' cap leaves none behind
	st := manyVersions(t, notes+1)
	sc := &fragment.Scratch{}
	a := fragment.NewAccess(fragment.TSIDIndexAccess, fragment.Eval{At: time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC), Scratch: sc})
	if els, _ := a.Read(st, fragment.Read{Source: fragment.FromFiller, ID: 1}); len(els) != notes+1 {
		t.Fatalf("%d versions read, want %d", len(els), notes+1)
	}
	if room, _ := fragment.KeptNotes(sc); room != 0 {
		t.Errorf("a read of %d versions left room for %d notes, past the cap of %d", notes+1, room, notes)
	}
}

// manyVersions is a store whose filler 1 has n versions.
func manyVersions(t *testing.T, n int) *fragment.Store {
	t.Helper()
	st := twoTSIDStore(t, false)
	base := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := range n {
		f := fragment.New(1, 2, base.Add(time.Duration(i)*time.Minute), xmldom.MustParseString(fmt.Sprintf(`<a k="%d"/>`, i)).Root())
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	return st
}
