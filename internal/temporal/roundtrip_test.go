package temporal

import (
	"testing"
	"testing/quick"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

// TestFragmentReconstructRoundTrip is the system's central invariant:
// for any document conforming to a tag structure, fragmenting it and
// reconstructing the temporal view yields the original document again
// (modulo the vtFrom/vtTo annotations reconstruction adds).
func TestFragmentReconstructRoundTrip(t *testing.T) {
	// structure: root(snapshot) -> a(temporal){x snapshot, b(event){y}}
	s, err := tagstruct.New(&tagstruct.Tag{
		Type: tagstruct.Snapshot, ID: 1, Name: "root",
		Children: []*tagstruct.Tag{
			{Type: tagstruct.Temporal, ID: 2, Name: "a", Children: []*tagstruct.Tag{
				{Type: tagstruct.Snapshot, ID: 3, Name: "x"},
				{Type: tagstruct.Event, ID: 4, Name: "b", Children: []*tagstruct.Tag{
					{Type: tagstruct.Snapshot, ID: 5, Name: "y"},
				}},
			}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// build random conforming documents from a byte recipe
	build := func(recipe []uint8) *xmldom.Node {
		root := xmldom.NewElement("root")
		var curA *xmldom.Node
		for _, op := range recipe {
			switch op % 4 {
			case 0: // new a
				curA = xmldom.NewElement("a")
				curA.SetAttr("id", string(rune('a'+len(root.Children)%26)))
				root.AppendChild(curA)
			case 1: // x text child under current a
				if curA != nil {
					curA.AppendChild(xmldom.TextElem("x", "v"))
				}
			case 2: // b event with nested y
				if curA != nil {
					b := xmldom.NewElement("b")
					b.AppendChild(xmldom.TextElem("y", "w"))
					curA.AppendChild(b)
				}
			case 3: // bare b
				if curA != nil {
					curA.AppendChild(xmldom.NewElement("b"))
				}
			}
		}
		doc := xmldom.NewDocument()
		doc.AppendChild(root)
		return doc
	}

	at := time.Date(2004, time.January, 1, 0, 0, 0, 0, time.UTC)
	f := func(recipe []uint8) bool {
		doc := build(recipe)
		fr := fragment.NewFragmenter(s)
		frags, err := fr.Fragment(doc)
		if err != nil {
			return false
		}
		st := fragment.NewStore(s)
		if err := st.AddAll(frags); err != nil {
			return false
		}
		view, err := Temporalize(st, at)
		if err != nil {
			return false
		}
		// the view shares hole-free subtrees with the store: strip a
		// private copy
		view = view.Clone()
		stripVT(view)
		return view.Equal(doc.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// stripVT removes the lifespan annotations reconstruction adds.
func stripVT(n *xmldom.Node) {
	n.Walk(func(m *xmldom.Node) bool {
		kept := make([]xmldom.Attr, 0, len(m.Attrs))
		for _, a := range m.Attrs {
			if a.Name != "vtFrom" && a.Name != "vtTo" {
				kept = append(kept, a)
			}
		}
		m.Attrs = kept
		return true
	})
}

// TestRoundTripPreservesOrderAndDepth pins the invariant on a concrete
// nested document where sibling order matters.
func TestRoundTripPreservesOrderAndDepth(t *testing.T) {
	st := creditStore(t)
	view1, err := Temporalize(st, evalAt)
	if err != nil {
		t.Fatal(err)
	}
	// re-fragment the materialized view (versions coalesce back) and
	// reconstruct again: a fixpoint after one round
	fr := fragment.NewFragmenter(st.Structure())
	fr.CoalesceVersions = true
	doc := xmldom.NewDocument()
	doc.AppendChild(view1.Clone())
	frags, err := fr.Fragment(doc)
	if err != nil {
		t.Fatal(err)
	}
	st2 := fragment.NewStore(st.Structure())
	if err := st2.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	view2, err := Temporalize(st2, evalAt)
	if err != nil {
		t.Fatal(err)
	}
	if !view1.Equal(view2) {
		t.Fatalf("reconstruction is not a fixpoint:\n1: %s\n2: %s", view1, view2)
	}
}
