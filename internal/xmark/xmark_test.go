package xmark

import (
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{Scale: 0, Seed: 7}).Root().String()
	b := Generate(Config{Scale: 0, Seed: 7}).Root().String()
	if a != b {
		t.Fatal("same seed must give identical documents")
	}
	c := Generate(Config{Scale: 0, Seed: 8}).Root().String()
	if a == c {
		t.Fatal("different seeds should differ")
	}
}

func TestGenerateShape(t *testing.T) {
	doc := Generate(Config{Scale: 0.001, Seed: 1})
	site := doc.Root()
	if site.Name != "site" {
		t.Fatalf("root = %q", site.Name)
	}
	for _, section := range []string{"regions", "categories", "people", "open_auctions", "closed_auctions"} {
		if site.FirstChildElement(section) == nil {
			t.Fatalf("missing %s", section)
		}
	}
	persons, items, open, closed, _ := Counts(0.001)
	if got := len(site.FirstChildElement("people").ChildElements("person")); got != persons {
		t.Fatalf("persons = %d want %d", got, persons)
	}
	if got := len(site.Descendants("item")); got != items {
		t.Fatalf("items = %d want %d", got, items)
	}
	if got := len(site.Descendants("open_auction")); got != open {
		t.Fatalf("open = %d want %d", got, open)
	}
	if got := len(site.Descendants("closed_auction")); got != closed {
		t.Fatalf("closed = %d want %d", got, closed)
	}
	// every open auction has at least one bidder with an increase
	for _, a := range site.Descendants("open_auction") {
		if len(a.ChildElements("bidder")) == 0 {
			t.Fatal("auction without bidders")
		}
		if a.ChildElements("bidder")[0].FirstChildElement("increase") == nil {
			t.Fatal("bidder without increase")
		}
	}
}

func TestCountsFloors(t *testing.T) {
	p, i, o, c, cat := Counts(0)
	if p < 2 || i < 6 || o < 2 || c < 2 || cat < 1 {
		t.Fatalf("floors: %d %d %d %d %d", p, i, o, c, cat)
	}
	p1, _, _, _, _ := Counts(0.1)
	if p1 != 2550 {
		t.Fatalf("persons at 0.1 = %d", p1)
	}
}

func TestGeneratedSizesNearPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("size calibration is slow")
	}
	// the paper reports 27.3KB / 5.8MB / 11.8MB for sf 0, 0.05, 0.1
	cases := []struct {
		scale  float64
		lo, hi int
	}{
		{0, 10 << 10, 60 << 10},
		{0.05, 4 << 20, 8 << 20},
		{0.1, 8 << 20, 16 << 20},
	}
	for _, c := range cases {
		doc := Generate(Config{Scale: c.scale, Seed: 1})
		size := len(doc.Root().String())
		if size < c.lo || size > c.hi {
			t.Errorf("scale %.2f: size = %.1fKB, want within [%d, %d]KB",
				c.scale, float64(size)/1024, c.lo/1024, c.hi/1024)
		}
	}
}

func TestStructureMatchesGenerator(t *testing.T) {
	s, frags, _ := GenerateFragments(Config{Scale: 0.001, Seed: 2})
	if frags[0].FillerID != fragment.RootFillerID {
		t.Fatal("first fragment must be the root")
	}
	persons, items, open, closed, cats := Counts(0.001)
	// every temporal/event entity became a fragment; bidders too
	st := fragment.NewStore(s)
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	count := func(name string) int {
		total := 0
		for _, tag := range s.Named(name) {
			fids, _ := st.TSIDFillers(tag.ID)
			total += len(fids)
		}
		return total
	}
	if got := count("person"); got != persons {
		t.Fatalf("person fragments = %d want %d", got, persons)
	}
	if got := count("item"); got != items {
		t.Fatalf("item fragments = %d want %d", got, items)
	}
	if got := count("open_auction"); got != open {
		t.Fatalf("open_auction fragments = %d want %d", got, open)
	}
	if got := count("closed_auction"); got != closed {
		t.Fatalf("closed_auction fragments = %d want %d", got, closed)
	}
	if got := count("category"); got != cats {
		t.Fatalf("category fragments = %d want %d", got, cats)
	}
	if got := count("bidder"); got == 0 {
		t.Fatal("no bidder fragments")
	}
}

func TestQueriesAgreeAcrossModes(t *testing.T) {
	s, frags, _ := GenerateFragments(Config{Scale: 0.002, Seed: 3})
	st := fragment.NewStore(s)
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("auction", st)
	at := time.Date(2004, time.June, 1, 0, 0, 0, 0, time.UTC)

	for _, src := range []string{QueryQ1(), QueryQ2(), QueryQ5()} {
		var first []string
		for _, mode := range []xcql.Mode{xcql.CaQ, xcql.QaC, xcql.QaCPlus} {
			q, err := rt.Compile(src, mode)
			if err != nil {
				t.Fatalf("%s compile: %v", mode, err)
			}
			seq, err := q.Eval(at)
			if err != nil {
				t.Fatalf("%s eval: %v", mode, err)
			}
			rendered := xq.Strings(seq)
			if first == nil {
				first = rendered
				continue
			}
			if len(first) != len(rendered) {
				t.Fatalf("%s cardinality %d != %d", mode, len(rendered), len(first))
			}
			for i := range first {
				if first[i] != rendered[i] {
					t.Fatalf("%s result[%d] = %q != %q", mode, i, rendered[i], first[i])
				}
			}
		}
		if len(first) == 0 {
			t.Fatalf("query produced nothing: %s", src)
		}
	}
}

func TestQ5CountsPricesAbove40(t *testing.T) {
	s, frags, _ := GenerateFragments(Config{Scale: 0.002, Seed: 3})
	st := fragment.NewStore(s)
	_ = st.AddAll(frags)
	rt := xcql.NewRuntime()
	rt.RegisterStream("auction", st)
	at := time.Date(2004, time.June, 1, 0, 0, 0, 0, time.UTC)

	q := rt.MustCompile(QueryQ5(), xcql.QaCPlus)
	seq, err := q.Eval(at)
	if err != nil {
		t.Fatal(err)
	}
	got := int(xq.NumberValue(seq[0]))

	// independent count from the raw document
	doc := Generate(Config{Scale: 0.002, Seed: 3})
	want := 0
	for _, ca := range doc.Root().Descendants("closed_auction") {
		if xq.NumberValue(ca.FirstChildElement("price")) >= 40 {
			want++
		}
	}
	if got != want || want == 0 {
		t.Fatalf("Q5 = %d, independent recount = %d", got, want)
	}
}

// The size GenerateFragments reports is the generated document's
// serialized length, counted without serializing it.
func TestGeneratedSizeIsSerializedLength(t *testing.T) {
	cfg := Config{Scale: 0.002, Seed: 5}
	doc := Generate(cfg).Root()
	if got, want := doc.EncodedLen(), len(doc.String()); got != want {
		t.Fatalf("EncodedLen = %d, len(String()) = %d", got, want)
	}
	if _, _, got := GenerateFragments(cfg); got != len(doc.String()) {
		t.Fatalf("GenerateFragments reports %d bytes, the document serializes to %d", got, len(doc.String()))
	}
}

func TestFragmentedSizeLargerThanPlain(t *testing.T) {
	_, frags, plain := GenerateFragments(Config{Scale: 0.001, Seed: 4})
	fragged := FragmentedSize(frags)
	if fragged <= plain {
		t.Fatalf("fragmented size %d should exceed plain %d (filler/hole overhead)", fragged, plain)
	}
	if fragged > plain*2 {
		t.Fatalf("fragmentation overhead suspiciously high: %d vs %d", fragged, plain)
	}
}
