package registry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// libraryEvalBody renders a POST /v1/eval body through encoding/json: with
// HTML escaping on it is what the handler wrote while it marshaled a map,
// with it off the bytes appendEvalBody is held to.
func libraryEvalBody(at time.Time, seq xq.Sequence, escapeHTML bool) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(escapeHTML)
	err := enc.Encode(map[string]any{"at": at.Format(time.RFC3339Nano), "items": itemSerials(seq)})
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), err
}

// sameEvalBody fails unless body is the library's bytes with HTML escaping
// off and decodes to the value the map-marshaling handler's body did.
func sameEvalBody(t *testing.T, body []byte, at time.Time, seq xq.Sequence) {
	t.Helper()
	want, err := libraryEvalBody(at, seq, false)
	if err != nil || !bytes.Equal(body, want) {
		t.Fatalf("body differs from encoding/json's (%v)\n got %q\nwant %q", err, body, want)
	}
	escaped, err := libraryEvalBody(at, seq, true)
	if err != nil {
		t.Fatal(err)
	}
	var got, was any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("body %q does not decode: %v", body, err)
	}
	if err := json.Unmarshal(escaped, &was); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, was) {
		t.Fatalf("body decodes to %#v, the escaped body to %#v", got, was)
	}
}

// The eval body, written by hand: markup and '&' travel as themselves,
// what JSON must escape is escaped as encoding/json does, and the value is
// the one the handler sent while it escaped HTML.
func TestEvalBodyGolden(t *testing.T) {
	at := time.Date(2003, 11, 5, 10, 0, 0, 1500000, time.UTC)
	tx := churnEl(t, `<transaction id="t1"><amount>5 &amp; up</amount></transaction>`)
	odd := xmldom.NewElement("note")
	odd.SetAttr("by", "a\u2028b")
	odd.AppendChild(xmldom.NewText("x\xffy\x01<"))
	for _, c := range []struct {
		name string
		seq  xq.Sequence
		want string
	}{
		{"empty", nil, `{"at":"2003-11-05T10:00:00.0015Z","items":[]}`},
		{"node and atomics", xq.Sequence{tx, 41.0, "a\tb", true},
			`{"at":"2003-11-05T10:00:00.0015Z","items":["<transaction id=\"t1\"><amount>5 &amp; up</amount></transaction>","41","a\tb","true"]}`},
		{"markup in an atomic", xq.Sequence{"<>&"}, `{"at":"2003-11-05T10:00:00.0015Z","items":["<>&"]}`},
		{"control bytes, U+2028 and invalid UTF-8", xq.Sequence{odd, "\x00\u2029\xc0"},
			`{"at":"2003-11-05T10:00:00.0015Z","items":["<note by=\"a\u2028b\">x\ufffdy\u0001&lt;</note>","\u0000\u2029\ufffd"]}`},
	} {
		got := appendEvalBody([]byte("kept"), at, c.seq)
		if string(got) != "kept"+c.want {
			t.Errorf("%s:\n got %s\nwant kept%s", c.name, got, c.want)
		}
		sameEvalBody(t, got[len("kept"):], at, c.seq)
	}
}

// FuzzEvalBody: whatever a node's text and attribute and an atomic hold,
// the hand-written body is encoding/json's with HTML escaping off, byte for
// byte, and decodes to what the HTML-escaped body did.
func FuzzEvalBody(f *testing.F) {
	f.Add("x &amp; y <z>", "a\"b", "<>&", int64(1068026400123456789))
	f.Add("\x00\x01\x1f\x7f\b\f\n\r\t", "\\", "\u2028\u2029", int64(0))
	f.Add("\xff\xfe caf\xc3\xa9 \xe2\x80", "\xed\xa0\x80", "\xf4\x90\x80\x80", int64(-1))
	f.Fuzz(func(t *testing.T, text, attr, atom string, atNs int64) {
		el := xmldom.NewElement("item")
		el.SetAttr("a", attr)
		el.AppendChild(xmldom.NewText(text))
		at := time.Unix(0, atNs).UTC()
		seq := xq.Sequence{el, atom, xmldom.NewText(text)}
		sameEvalBody(t, appendEvalBody(nil, at, seq), at, seq)
	})
}
