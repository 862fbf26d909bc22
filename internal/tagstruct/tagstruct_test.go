package tagstruct

import (
	"strings"
	"testing"

	"xcql/internal/xmldom"
)

// creditWire is the tag structure of the paper's running example (§4.1).
const creditWire = `<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="customer"/>
    <tag type="temporal" id="4" name="creditLimit"/>
    <tag type="event" id="5" name="transaction">
      <tag type="event" id="6" name="vendor"/>
      <tag type="temporal" id="7" name="status"/>
      <tag type="snapshot" id="8" name="amount"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

func credit(t *testing.T) *Structure {
	t.Helper()
	s, err := ParseString(creditWire)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseCreditStructure(t *testing.T) {
	s := credit(t)
	if s.Root.Name != "creditAccounts" || s.Root.Type != Snapshot {
		t.Fatalf("root = %+v", s.Root)
	}
	tx := s.ByID(5)
	if tx == nil || tx.Name != "transaction" || tx.Type != Event {
		t.Fatalf("tag 5 = %+v", tx)
	}
	if tx.Parent.Name != "account" {
		t.Fatal("parent links not set")
	}
	if got := len(s.Tags()); got != 8 {
		t.Fatalf("tag count = %d", got)
	}
}

func TestTagTypeParsing(t *testing.T) {
	for _, name := range []string{"snapshot", "temporal", "event"} {
		typ, err := ParseTagType(name)
		if err != nil || typ.String() != name {
			t.Errorf("round trip %q: %v %v", name, typ, err)
		}
	}
	if _, err := ParseTagType("bogus"); err == nil {
		t.Error("bogus type accepted")
	}
}

func TestIsFragmented(t *testing.T) {
	s := credit(t)
	if s.ByID(1).IsFragmented() || s.ByID(3).IsFragmented() {
		t.Fatal("snapshot tags must not be fragmented")
	}
	if !s.ByID(2).IsFragmented() || !s.ByID(5).IsFragmented() {
		t.Fatal("temporal/event tags must be fragmented")
	}
}

func TestNamedAndNamedUnder(t *testing.T) {
	s := credit(t)
	if got := s.Named("creditLimit"); len(got) != 1 || got[0].ID != 4 {
		t.Fatalf("Named = %v", got)
	}
	under := s.NamedUnder(s.Root, "status")
	if len(under) != 1 || under[0].ID != 7 {
		t.Fatalf("NamedUnder = %v", under)
	}
	all := s.NamedUnder(s.ByID(5), "*")
	if len(all) != 3 {
		t.Fatalf("wildcard under transaction = %d", len(all))
	}
}

func TestValidationErrors(t *testing.T) {
	cases := map[string]*Tag{
		"nil root":       nil,
		"empty name":     {ID: 1, Name: ""},
		"zero id":        {ID: 0, Name: "a"},
		"duplicate id":   {ID: 1, Name: "a", Children: []*Tag{{ID: 1, Name: "b"}}},
		"duplicate name": {ID: 1, Name: "a", Children: []*Tag{{ID: 2, Name: "b"}, {ID: 3, Name: "b"}}},
	}
	for label, root := range cases {
		if _, err := New(root); err == nil {
			t.Errorf("%s: validation passed unexpectedly", label)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	s := credit(t)
	re, err := ParseString(s.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Tags()) != len(s.Tags()) {
		t.Fatal("tag count changed")
	}
	for _, tag := range s.Tags() {
		r := re.ByID(tag.ID)
		if r == nil || r.Name != tag.Name || r.Type != tag.Type || r.Path() != tag.Path() {
			t.Fatalf("tag %d changed: %+v vs %+v", tag.ID, tag, r)
		}
	}
}

func TestParseWireErrors(t *testing.T) {
	cases := []string{
		`<stream:structure/>`,
		`<stream:structure><tag type="snapshot" id="1" name="a"/><tag type="snapshot" id="2" name="b"/></stream:structure>`,
		`<stream:structure><tag id="1" name="a"/></stream:structure>`,                 // missing type
		`<stream:structure><tag type="snapshot" name="a"/></stream:structure>`,        // missing id
		`<stream:structure><tag type="snapshot" id="x" name="a"/></stream:structure>`, // bad id
		`<stream:structure><tag type="snapshot" id="1"/></stream:structure>`,          // missing name
		`<stream:structure><wrong/></stream:structure>`,
	}
	for _, src := range cases {
		if _, err := ParseString(src); err == nil {
			t.Errorf("ParseString(%q) unexpectedly succeeded", src)
		}
	}
}

func TestInferFromSample(t *testing.T) {
	doc := xmldom.MustParseString(`<creditAccounts>
	  <account vtFrom="1998-10-10T12:20:22" vtTo="2003-11-10T09:30:45">
	    <customer>John</customer>
	    <creditLimit vtFrom="1998-10-10T12:20:22" vtTo="2001-04-23T23:11:08">2000</creditLimit>
	    <transaction vtFrom="2003-10-23T12:23:34" vtTo="2003-10-23T12:23:34">
	      <vendor>Pizza</vendor>
	      <amount>38.20</amount>
	      <status vtFrom="2003-10-23T12:24:35" vtTo="now">charged</status>
	    </transaction>
	  </account>
	  <account vtFrom="1999-01-01T00:00:00" vtTo="now">
	    <customer>Jane</customer>
	    <rewards>gold</rewards>
	  </account>
	</creditAccounts>`)
	s, err := Infer(doc)
	if err != nil {
		t.Fatal(err)
	}
	check := func(path string, typ TagType) {
		t.Helper()
		names := strings.Split(path, "/")
		if names[0] != s.Root.Name {
			t.Fatalf("%s: root is %q", path, s.Root.Name)
		}
		tag := s.Root
		for _, name := range names[1:] {
			if tag = tag.Child(name); tag == nil {
				t.Fatalf("%s: no child %q", path, name)
			}
		}
		if tag.Type != typ {
			t.Errorf("%s: type = %v, want %v", path, tag.Type, typ)
		}
	}
	check("creditAccounts", Snapshot)
	check("creditAccounts/account", Temporal)
	check("creditAccounts/account/customer", Snapshot)
	check("creditAccounts/account/creditLimit", Temporal)
	check("creditAccounts/account/transaction", Event)
	check("creditAccounts/account/transaction/status", Temporal)
	// child discovered only on the second account occurrence
	check("creditAccounts/account/rewards", Snapshot)
}

func TestInferAssignsPreorderIDs(t *testing.T) {
	doc := xmldom.MustParseString(`<a><b><c/></b><d/></a>`)
	s, err := Infer(doc)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := map[int]string{1: "a", 2: "b", 3: "c", 4: "d"}
	for id, name := range wantNames {
		if tag := s.ByID(id); tag == nil || tag.Name != name {
			t.Errorf("id %d = %v, want %s", id, tag, name)
		}
	}
}
