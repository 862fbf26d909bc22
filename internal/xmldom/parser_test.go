package xmldom

import (
	"io"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

func TestParseSimpleDocument(t *testing.T) {
	doc, err := ParseString(`<a x="1"><b>hi</b><c/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	root := doc.Root()
	if root.Name != "a" {
		t.Fatalf("root = %q", root.Name)
	}
	if v, ok := root.Attr("x"); !ok || v != "1" {
		t.Fatalf("attr x = %q %v", v, ok)
	}
	if len(root.ElementChildren()) != 2 {
		t.Fatalf("children: %d", len(root.ElementChildren()))
	}
	if root.FirstChildElement("b").Text() != "hi" {
		t.Fatal("b text")
	}
	if root.FirstChildElement("c") == nil {
		t.Fatal("self-closing c missing")
	}
}

func TestParseEntitiesAndCharRefs(t *testing.T) {
	doc, err := ParseString(`<a b="x &amp; y">1 &lt; 2 &gt; 0 &apos;&quot; &#65;&#x42;</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().Text(); got != `1 < 2 > 0 '" AB` {
		t.Fatalf("text = %q", got)
	}
	if v, _ := doc.Root().Attr("b"); v != "x & y" {
		t.Fatalf("attr = %q", v)
	}
}

func TestParsePrologAndDoctype(t *testing.T) {
	src := `<?xml version="1.0"?>
<!DOCTYPE creditSystem [<!ELEMENT account (customer)>]>
<!-- header -->
<creditSystem><account/></creditSystem>`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Name != "creditSystem" {
		t.Fatalf("root = %q", doc.Root().Name)
	}
}

func TestParseCDATA(t *testing.T) {
	doc, err := ParseString(`<a><![CDATA[x < y & z]]></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := doc.Root().Text(); got != "x < y & z" {
		t.Fatalf("text = %q", got)
	}
}

func TestParseComments(t *testing.T) {
	doc, err := ParseString(`<a><!-- note -->v</a>`)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Children[0].Type != CommentNode {
		t.Fatal("comment not preserved")
	}
	if doc.Root().Text() != "v" {
		t.Fatal("comment text leaked into Text()")
	}
}

func TestParseNestedDeep(t *testing.T) {
	var b strings.Builder
	const depth = 500
	for range depth {
		b.WriteString("<d>")
	}
	b.WriteString("leaf")
	for range depth {
		b.WriteString("</d>")
	}
	doc, err := ParseString(b.String())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Root().Text() != "leaf" {
		t.Fatal("deep text lost")
	}
}

// TestParseErrors pins every malformed case with the message and the
// line:col the byte-at-a-time tokenizer reported for it: the position is
// worked out from the offset only when the error is built, and must come
// out where counting bytes on the way did.
func TestParseErrors(t *testing.T) {
	cases := []struct{ src, want string }{
		{``, `xml: no document element`},
		{`<a>`, `xml: unexpected EOF inside <a>`},
		{`<a></b>`, `xml: 1:4: </b> does not match <a>`},
		{`<a></a><b></b>`, `xml: 1:8: multiple document elements`},
		{`text only`, `xml: 1:1: character data outside document element`},
		{`<a attr></a>`, `xml: 1:9: attribute "attr" missing '='`},
		{`<a b=c></a>`, `xml: 1:7: attribute "b" value must be quoted`},
		{`<a>&unknown;</a>`, `xml: 1:13: unknown entity &unknown;`},
		{`<a>&#xZZ;</a>`, `xml: 1:10: bad character reference &#xZZ;`},
		{`<a>&amp</a>`, `xml: 1:8: unterminated entity reference`},
		{`<a b="&bogus;"/>`, `xml: 1:15: attribute "b": unknown entity &bogus;`},
		{`<a><!-- unterminated`, `xml: 1:21: unterminated comment`},
		{`</a>`, `xml: 1:1: unexpected </a>`},
		{`<a b="1" b2='unclosed>`, `xml: 1:23: unterminated value for attribute "b2"`},
		{`<a/`, `xml: 1:4: expected '>' after '/' in <a>`},
		{`<`, `xml: 1:2: unexpected EOF after '<'`},
		{`<!DOCTYPE a [`, `xml: 1:14: unterminated directive`},
		{"<a>\n  <b></c>\n</a>", `xml: 2:6: </c> does not match <b>`},
		{"<a>\n\n <b x=\"1\" y></b></a>", `xml: 3:13: attribute "y" missing '='`},
		{"<a>\n<![CDATA[x", `xml: 2:11: unterminated CDATA section`},
		{"<a>\n <?pi never closed", `xml: 2:19: unterminated processing instruction`},
		{"<a>\n</a \n x>", `xml: 3:3: malformed end tag </a`},
		{"<?xml version=\"1.0\"?>\n<a>\n</a>\n<b/>", `xml: 4:1: multiple document elements`},
		{"<é>\n<ü></é>", `xml: 2:5: </é> does not match <ü>`}, // columns count bytes
	}
	for _, c := range cases {
		_, err := ParseString(c.src)
		if err == nil {
			t.Errorf("ParseString(%q) unexpectedly succeeded", c.src)
		} else if err.Error() != c.want {
			t.Errorf("ParseString(%q):\n got %s\nwant %s", c.src, err, c.want)
		}
	}
}

func TestStreamDecoderMultipleElements(t *testing.T) {
	src := `<f id="1"/> <f id="2"><x>a</x></f>
	<!-- noise --> <f id="3"/>`
	d := NewStreamDecoder(strings.NewReader(src))
	var ids []string
	for {
		el, err := d.ReadElement()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		id, _ := el.Attr("id")
		ids = append(ids, id)
	}
	if strings.Join(ids, ",") != "1,2,3" {
		t.Fatalf("ids = %v", ids)
	}
}

func TestStreamDecoderStrayData(t *testing.T) {
	d := NewStreamDecoder(strings.NewReader(`<a/> junk <b/>`))
	if _, err := d.ReadElement(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadElement(); err == nil {
		t.Fatal("stray data should error")
	}
}

// TestStringsShareTheInput is the codec's allocation contract: a tree's
// names, attribute values and text are substrings of the parsed string —
// nothing is copied unless an entity reference forces it — so parsing
// allocates nodes and slices only.
func TestStringsShareTheInput(t *testing.T) {
	src := `<transaction id="t17"><vendor>Grocer</vendor><amount>38</amount><note k="a&amp;b">x &lt; y</note></transaction>`
	doc, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	addr := func(s string) uintptr { return uintptr(unsafe.Pointer(unsafe.StringData(s))) }
	inside := func(s string) bool {
		return len(s) == 0 || (addr(s) >= addr(src) && addr(s)+uintptr(len(s)) <= addr(src)+uintptr(len(src)))
	}
	copied := 0
	doc.Root().Walk(func(n *Node) bool {
		for _, s := range []string{n.Name, n.Data} {
			if !inside(s) {
				copied++
			}
		}
		for _, a := range n.Attrs {
			if !inside(a.Name) {
				t.Errorf("attribute name %q was copied", a.Name)
			}
			if !inside(a.Value) {
				copied++
			}
		}
		return true
	})
	// exactly the two values spelled with an entity
	if copied != 2 {
		t.Fatalf("%d strings copied out of the input, want 2", copied)
	}
	if v, _ := doc.Root().FirstChildElement("note").Attr("k"); v != "a&b" {
		t.Fatalf("entity value = %q", v)
	}
}

// TestParseElementTakesTheFirstElement is the frame decoder's contract:
// noise before the element is skipped, whatever follows it is not read.
func TestParseElementTakesTheFirstElement(t *testing.T) {
	el, err := ParseElement(" <!-- c --><?pi?><f id=\"1\"><x/></f><unclosed")
	if err != nil {
		t.Fatal(err)
	}
	if el.String() != `<f id="1"><x/></f>` {
		t.Fatalf("got %s", el)
	}
	if _, err := ParseElement(` junk <f/>`); err == nil {
		t.Fatal("stray data before the element should error")
	}
	if _, err := ParseElement(``); err != io.EOF {
		t.Fatalf("empty input: %v, want io.EOF", err)
	}
}

// TestDecodedListsAreClippedWindows is the decoder's layout contract: a
// tree's nodes, attributes and child pointers are three arrays, and every
// node's Attrs and Children is a window of one with its capacity clipped —
// so the owner of a decoded tree appending to one node's list reallocates
// that list and never writes a neighbour's.
func TestDecodedListsAreClippedWindows(t *testing.T) {
	const src = `<?pi x?><a x="1" y="2"><b k="v">t</b><c/><!-- n --><d e="f"><g h="i" j="k"/><g/>tail</d><h l="m"/></a>`
	var kept Decoder
	decoders := map[string]func() (*Node, error){
		"ParseString":  func() (*Node, error) { return ParseString(src) },
		"ParseElement": func() (*Node, error) { return ParseElement(src) },
		"kept Decoder": func() (*Node, error) { return kept.Element(src) },
	}
	preorder := func(root *Node) []*Node {
		var nodes []*Node
		root.Walk(func(n *Node) bool { nodes = append(nodes, n); return true })
		return nodes
	}
	for name, decode := range decoders {
		root, err := decode()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		nodes := preorder(root)
		for _, n := range nodes {
			if cap(n.Children) != len(n.Children) || cap(n.Attrs) != len(n.Attrs) {
				t.Errorf("%s: <%s> has %d/%d children and %d/%d attributes (len/cap)",
					name, n.Name, len(n.Children), cap(n.Children), len(n.Attrs), cap(n.Attrs))
			}
		}
		for i := range nodes {
			root, _ := decode()
			nodes := preorder(root)
			type lists struct {
				kids  []*Node
				attrs []Attr
			}
			before := make([]lists, len(nodes))
			for j, n := range nodes {
				before[j] = lists{slices.Clone(n.Children), slices.Clone(n.Attrs)}
			}
			nodes[i].AppendChild(NewText("appended"))
			nodes[i].SetAttr("appended", "1")
			for j, n := range nodes {
				if j != i && (!slices.Equal(n.Children, before[j].kids) || !slices.Equal(n.Attrs, before[j].attrs)) {
					t.Fatalf("%s: appending to node %d (<%s>) changed node %d (<%s>)", name, i, nodes[i].Name, j, n.Name)
				}
			}
		}
	}
}

// BuildAfter builds what Build builds of a node's subtree below its top,
// after the nodes of a prefix: the top takes the attributes it is handed,
// each prefix node is itself where share says so and a deep copy
// otherwise, and every list of the tree is exactly sized.
func TestBuildAfterSharesWhatItIsTold(t *testing.T) {
	prefix := MustParseString(`<a x="1">t<b k="v"/><c><d e="f"/>g</c></a>`).Root()
	isB := func(_ int, n *Node) bool { return n.Name == "b" }
	for _, tail := range []string{``, `<b k="w"/>`, `<d><b k="v"/>x</d><e/>`, `u<f g="h"><i/></f>`} {
		var d Decoder
		el, err := d.Scan(`<a>` + tail + `</a>`)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := ParseElement(`<a x="1">t<b k="v"/><c><d e="f"/>g</c>` + tail + `</a>`)
		if err != nil {
			t.Fatal(err)
		}
		before := prefix.String()
		got := el.BuildAfter(prefix.Attrs, prefix.Children, isB)
		if !got.Equal(whole) || prefix.String() != before {
			t.Fatalf("%q: built %s, want %s (prefix now %s)", tail, got, whole, prefix)
		}
		for i, c := range prefix.Children {
			if shared := got.Children[i] == c; shared != isB(i, c) {
				t.Fatalf("%q: prefix child %d (<%s>) shared: %v", tail, i, c.Name, shared)
			}
		}
		got.Walk(func(n *Node) bool {
			if cap(n.Children) != len(n.Children) || cap(n.Attrs) != len(n.Attrs) {
				t.Fatalf("%q: <%s>'s lists are not exactly sized", tail, n.Name)
			}
			if n.Name == "d" && len(n.Attrs) > 0 && &n.Attrs[0] == &prefix.Children[2].Children[0].Attrs[0] {
				t.Fatalf("%q: a copy shares its attributes", tail)
			}
			return true
		})
	}
}

// A kept decoder lets go of scratch that one outsized tree grew: a
// connection's decoder lives as long as the connection.
func TestDecoderLetsGoOfOutsizedScratch(t *testing.T) {
	var d Decoder
	for _, src := range []string{
		"<a>" + strings.Repeat("<b/>", 2*keptRecords) + "</a>",
		"<a" + strings.Repeat(` x="1"`, 2*keptRecords) + "/>",
	} {
		if _, err := d.Element(src); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Element(`<small k="v"/>`); err != nil {
			t.Fatal(err)
		}
		if cap(d.recs) > keptRecords || cap(d.attrs) > keptRecords || cap(d.z.attrs) > keptRecords {
			t.Fatalf("kept %d records and %d+%d attributes of scratch after an outsized tree",
				cap(d.recs), cap(d.attrs), cap(d.z.attrs))
		}
	}
}

func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`<a x="1" y="&lt;&amp;&quot;"><b>text &amp; more</b><c/><d>1<e/>2</d></a>`,
		`<filler id="100" tsid="5" validTime="2003-10-23T12:23:34"><transaction id="12345"><vendor> Southlake Pizza </vendor><amount> 38.20 </amount><hole id="200" tsid="7"/></transaction></filler>`,
	}
	for _, src := range srcs {
		doc, err := ParseString(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		out := doc.Root().String()
		doc2, err := ParseString(out)
		if err != nil {
			t.Fatalf("reparse %q: %v", out, err)
		}
		if !doc.Root().Equal(doc2.Root()) {
			t.Fatalf("round trip changed tree:\n in: %s\nout: %s", src, out)
		}
	}
}

func TestIndentSerialization(t *testing.T) {
	doc := MustParseString(`<a><b><c>x</c></b></a>`)
	out := doc.Root().IndentString()
	if !strings.Contains(out, "\n  <b>") {
		t.Fatalf("no indentation:\n%s", out)
	}
	// mixed content must stay inline
	mixed := MustParseString(`<p>hello <b>world</b>!</p>`)
	if got := mixed.Root().IndentString(); !strings.Contains(got, "hello <b>world</b>!") {
		t.Fatalf("mixed content distorted: %q", got)
	}
}
