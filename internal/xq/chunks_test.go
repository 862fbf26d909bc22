package xq

import (
	"testing"

	"xcql/internal/xmldom"
)

// A FLWOR's constructors carve their elements, text nodes, child lists and
// attribute lists from shared arrays, and every window is capacity-clipped:
// an append to one result's children or attributes reallocates that list
// and leaves every other result as it was.
func TestConstructedWindowsAreClipped(t *testing.T) {
	for _, src := range []string{
		`for $t in $doc//transaction return <r id="{$t/@id}">{$t/amount/text()}{string($t/@id)}{1}</r>`,
		`for $t in $doc//transaction order by $t/amount return <r id="{$t/@id}"><s>{$t/status/text()}</s>{$t/vendor/text()}</r>`,
		`for $t in $doc//transaction where $t/amount > 0 return <r id="{$t/@id}">{$t/amount/text()}</r>`,
		`for $a in $doc/account, $t in $a/transaction return <r id="{$t/@id}">{for $s in $t/status return <s>{$s/text()}</s>}</r>`,
	} {
		static := &Static{Now: evalAt}
		seq, err := runOn(t, static, src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if len(seq) < 2 {
			t.Fatalf("%s: %d items", src, len(seq))
		}
		checkScratchClean(t, static, src, 0)
		want := render(seq)
		// the constructed elements: each result and the <s> inside it; the
		// stored nodes they hold are not the evaluator's to clip
		var walk func(n *xmldom.Node)
		walk = func(n *xmldom.Node) {
			if cap(n.Children) != len(n.Children) {
				t.Errorf("%s: <%s> has %d children in room for %d", src, n.Name, len(n.Children), cap(n.Children))
			}
			if cap(n.Attrs) != len(n.Attrs) {
				t.Errorf("%s: <%s> has %d attributes in room for %d", src, n.Name, len(n.Attrs), cap(n.Attrs))
			}
			for _, c := range n.Children {
				if c.Type == xmldom.ElementNode && c.Name == "s" {
					walk(c)
				}
			}
		}
		for _, it := range seq {
			walk(it.(*xmldom.Node))
		}
		for i, it := range seq {
			el := it.(*xmldom.Node)
			el.AppendChild(xmldom.NewText("appended"))
			el.SetAttr("extra", "x")
			if el.Children[0].Type == xmldom.ElementNode {
				el.Children[0].AppendChild(xmldom.NewText("inner"))
			}
			rest := render(seq[i+1:])
			if wantRest := render(mustRun(t, src)[i+1:]); rest != wantRest {
				t.Fatalf("%s: appending to item %d changed the items after it:\n%s\nwant\n%s", src, i, rest, wantRest)
			}
		}
		if render(seq) == want {
			t.Fatalf("%s: the appends changed nothing", src)
		}
	}
}

func mustRun(t *testing.T, src string) Sequence {
	t.Helper()
	seq, err := runOn(t, &Static{Now: evalAt}, src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return seq
}

// A constructor outside any FLWOR takes a chunk of exactly what it asks
// for, so it allocates what it did as objects of its own: its element,
// carved with the one-item sequence Eval returns it in, and its child list.
func TestConstructorOutsideAFLWORTakesAChunkOfOne(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	static := &Static{Now: evalAt}
	e := MustParse(`<a>{$x}</a>`)
	ctx := NewContext(static).Bind("x", Singleton(xmldom.NewText("x")))
	got := testing.AllocsPerRun(10, func() {
		if _, err := Eval(e, ctx); err != nil {
			t.Fatal(err)
		}
	})
	// the element with its one-item sequence, and its child list
	if got != 2 {
		t.Errorf("<a>{$x}</a> costs %.0f allocations, want 2", got)
	}
	checkScratchClean(t, static, "<a>{$x}</a>", 0)
}
