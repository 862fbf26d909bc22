package xmldom_test

import (
	"strings"
	"testing"

	"xcql/internal/genstore"
	"xcql/internal/xmark"
	"xcql/internal/xmldom"
)

// TestParseEncodeRoundTrip holds Parse(Encode(n)) == n over the payloads
// the system actually moves — generated credit-style histories (plain and
// re-announced) and XMark auction fillers — and over hand-built trees that
// carry everything the serializer has to escape or the tokenizer has to
// resolve: entities in text and attributes, comments, PIs, non-ASCII names.
func TestParseEncodeRoundTrip(t *testing.T) {
	var trees []*xmldom.Node
	for seed := int64(1); seed <= 6; seed++ {
		ins, err := genstore.Generate(genstore.Profile{Seed: seed, Reannounce: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ins.Fragments {
			trees = append(trees, f.Payload, f.ToXML())
		}
	}
	_, frags, _ := xmark.GenerateFragments(xmark.Config{Scale: 0.01, Seed: 7})
	for _, f := range frags {
		trees = append(trees, f.Payload, f.ToXML())
	}
	trees = append(trees, xmark.Generate(xmark.Config{Scale: 0.005, Seed: 3}).Root())

	tricky := xmldom.NewElement("crédit:compte")
	tricky.SetAttr("id", `a"b<c>&d`)
	tricky.SetAttr("libellé", "tab\there\nnewline 'single'")
	tricky.AppendChild(xmldom.NewText("1 < 2 && 3 > 2 ]]> é ü  "))
	tricky.AppendChild(xmldom.NewComment(" a <comment> & more "))
	tricky.AppendChild(&xmldom.Node{Type: xmldom.ProcInstNode, Name: "render", Data: `mode="x"`})
	tricky.AppendChild(xmldom.TextElem("montant", "  38.20  "))
	tricky.AppendChild(xmldom.NewElement("vide"))
	trees = append(trees, tricky)

	for _, n := range trees {
		src := n.String()
		doc, err := xmldom.ParseString(src)
		if err != nil {
			t.Fatalf("Parse(Encode(n)): %v\nwire: %s", err, src)
		}
		if !doc.Root().Equal(n) {
			t.Fatalf("Parse(Encode(n)) != n\n   n: %s\nback: %s", src, doc.Root())
		}
		if again := doc.Root().String(); again != src {
			t.Fatalf("Encode(Parse(s)) != s\n   s: %s\nback: %s", src, again)
		}
	}
	t.Logf("%d trees", len(trees))
}

// TestParseResolvesWhatEncodeNeverWrites covers the input-only constructs:
// a prolog, a DOCTYPE with an internal subset, CDATA sections and numeric
// character references parse to the tree their plain spelling parses to.
func TestParseResolvesWhatEncodeNeverWrites(t *testing.T) {
	fancy := `<?xml version="1.0" encoding="UTF-8"?>
<!DOCTYPE creditSystem [<!ELEMENT account (customer)> <!ENTITY % x "y">]>
<!-- header -->
<creditSystem><account id='a&#49;'><![CDATA[<raw> & ]]>&#x3c;tail&#62;<?keep me?><!--c--></account></creditSystem>
<!-- trailer -->`
	plain := `<creditSystem><account id="a1">&lt;raw&gt; &amp; &lt;tail&gt;<?keep me?><!--c--></account></creditSystem>`
	a, err := xmldom.ParseString(fancy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := xmldom.ParseString(plain)
	if err != nil {
		t.Fatal(err)
	}
	// adjacent character data arrives as one text node per token; compare
	// what a reader of the tree sees
	if a.Root().String() != b.Root().String() || a.Root().Text() != b.Root().Text() {
		t.Fatalf("trees differ:\nfancy: %s\nplain: %s", a.Root(), b.Root())
	}
	if got := a.Root().FirstChildElement("account").AttrOr("id", ""); got != "a1" {
		t.Fatalf("id = %q", got)
	}
	if pi := a.Children[0]; pi.Type != xmldom.ProcInstNode || pi.Name != "xml" || !strings.Contains(pi.Data, "UTF-8") {
		t.Fatalf("prolog PI = %+v", pi)
	}
	via, err := xmldom.Parse(strings.NewReader(fancy))
	if err != nil || !via.Equal(a) {
		t.Fatalf("Parse(io.Reader) differs from ParseString: %v", err)
	}
}
