package xmldom

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAttrHelpers(t *testing.T) {
	e := NewElement("a")
	if _, ok := e.Attr("x"); ok {
		t.Fatal("missing attr reported present")
	}
	e.SetAttr("x", "1")
	e.SetAttr("x", "2") // replace
	if v, _ := e.Attr("x"); v != "2" {
		t.Fatalf("x = %q", v)
	}
	if e.AttrOr("y", "def") != "def" {
		t.Fatal("AttrOr default")
	}
}

func TestChildManipulation(t *testing.T) {
	p := NewElement("p")
	a, b := NewElement("a"), NewElement("b")
	p.AppendChild(a).AppendChild(b)
	var names []string
	for _, ch := range p.Children {
		names = append(names, ch.Name)
	}
	if strings.Join(names, "") != "ab" {
		t.Fatalf("order = %v", names)
	}
}

func TestDescendantsAndWildcard(t *testing.T) {
	doc := MustParseString(`<r><a><b/><a><b/></a></a><b/></r>`)
	if got := len(doc.Root().Descendants("b")); got != 3 {
		t.Fatalf("descendants b = %d", got)
	}
	if got := len(doc.Root().Descendants("*")); got != 5 {
		t.Fatalf("descendants * = %d", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := MustParseString(`<a x="1"><b>hi</b></a>`).Root()
	c := orig.Clone()
	if !c.Equal(orig) {
		t.Fatal("clone not equal")
	}
	c.FirstChildElement("b").Children[0].Data = "bye"
	c.SetAttr("x", "9")
	if orig.FirstChildElement("b").Text() != "hi" {
		t.Fatal("clone shares text")
	}
	if v, _ := orig.Attr("x"); v != "1" {
		t.Fatal("clone shares attrs")
	}
}

// A subtree may sit under several parents at once: attaching it writes
// the parent only, and CloneShallow gives a spine node whose attributes
// are private while the children stay shared.
func TestSharedSubtree(t *testing.T) {
	shared := MustParseString(`<b k="v">hi</b>`).Root()
	before := shared.String()
	p1, p2 := NewElement("p1"), NewElement("p2")
	p1.AppendChild(shared)
	p2.AppendChild(shared)
	if p1.Children[0] != p2.Children[0] {
		t.Fatal("child not shared")
	}
	spine := shared.CloneShallow()
	spine.Children = shared.Children
	spine.SetAttr("k", "other")
	spine.SetAttr("extra", "1")
	if shared.String() != before {
		t.Fatalf("shared node changed: %s", shared.String())
	}
	if spine.Children[0] != shared.Children[0] {
		t.Fatal("CloneShallow children not shared")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	base := `<a x="1"><b>hi</b></a>`
	same := MustParseString(base).Root()
	for _, variant := range []string{
		`<a x="2"><b>hi</b></a>`,
		`<a x="1"><b>ho</b></a>`,
		`<a x="1"><c>hi</c></a>`,
		`<a x="1"><b>hi</b><b/></a>`,
		`<a><b>hi</b></a>`,
	} {
		if same.Equal(MustParseString(variant).Root()) {
			t.Errorf("Equal(%s, %s) = true", base, variant)
		}
	}
}

func TestTextConcatenation(t *testing.T) {
	doc := MustParseString(`<a>1<b>2</b>3<c><d>4</d></c></a>`)
	if got := doc.Root().Text(); got != "1234" {
		t.Fatalf("text = %q", got)
	}
	if got := MustParseString(`<a>  pad  </a>`).Root().TrimmedText(); got != "pad" {
		t.Fatalf("trimmed = %q", got)
	}
}

func TestEscaping(t *testing.T) {
	e := NewElement("a")
	e.SetAttr("q", `a"b<c&`)
	e.AppendChild(NewText(`x<y&z>"w`))
	out := e.String()
	re, err := ParseString(out)
	if err != nil {
		t.Fatalf("serialized form unparseable: %v\n%s", err, out)
	}
	if !re.Root().Equal(e) {
		t.Fatalf("escape round trip: %s", out)
	}
}

// String writes a serial once, into one allocation of its exact size,
// whatever the markup to escape.
func TestStringAllocatesOnce(t *testing.T) {
	doc := MustParseString(`<r a="x&quot;y&#10;z">t &amp; &lt; &gt;<!-- c --><?pi d?><e/><f g="h">mixed <b>bold</b> tail</f></r>`)
	root := doc.Root()
	if got := testing.AllocsPerRun(20, func() { _ = root.String() }); got != 1 {
		t.Errorf("Node.String: %v allocations, want 1", got)
	}
	if got, want := len(root.String()), root.EncodedLen(); got != want {
		t.Errorf("EncodedLen %d, String writes %d bytes", want, got)
	}
	if got, want := doc.String(), root.String(); !strings.HasSuffix(got, want) || doc.EncodedLen() != len(got) {
		t.Errorf("document %q (EncodedLen %d), root %q", got, doc.EncodedLen(), want)
	}
}

func TestSerializeParsePropertyRoundTrip(t *testing.T) {
	// Property: any tree built from a constrained alphabet serializes to a
	// string that parses back to an equal tree.
	names := []string{"a", "b", "cd", "e-f"}
	texts := []string{"", "plain", `special <&>"'`, "  spaces  "}
	type spec struct {
		Shape []uint8
	}
	f := func(s spec) bool {
		// build a tree deterministically from the byte string
		root := NewElement("root")
		stack := []*Node{root}
		for _, op := range s.Shape {
			cur := stack[len(stack)-1]
			switch op % 4 {
			case 0: // push child element
				e := NewElement(names[int(op/4)%len(names)])
				cur.AppendChild(e)
				stack = append(stack, e)
			case 1: // text
				if txt := texts[int(op/4)%len(texts)]; txt != "" {
					cur.AppendChild(NewText(txt))
				}
			case 2: // attribute
				cur.SetAttr(names[int(op/4)%len(names)], texts[int(op/4)%len(texts)])
			case 3: // pop
				if len(stack) > 1 {
					stack = stack[:len(stack)-1]
				}
			}
		}
		out := root.String()
		if len(out) != root.EncodedLen() {
			return false // the length pass is what String allocates
		}
		doc, err := ParseString(out)
		if err != nil {
			return false
		}
		return doc.Root().Equal(normalizeAdjacentText(root))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// normalizeAdjacentText merges adjacent text children, which the parser
// naturally coalesces into one token.
func normalizeAdjacentText(n *Node) *Node {
	c := &Node{Type: n.Type, Name: n.Name, Data: n.Data}
	c.Attrs = append(c.Attrs, n.Attrs...)
	for _, ch := range n.Children {
		nc := normalizeAdjacentText(ch)
		if nc.Type == TextNode && len(c.Children) > 0 && c.Children[len(c.Children)-1].Type == TextNode {
			c.Children[len(c.Children)-1].Data += nc.Data
			continue
		}
		c.AppendChild(nc)
	}
	return c
}
