package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"xcql/internal/inc"
	"xcql/internal/xq"
)

// libraryFrame renders a delivery the way the codec did while it went
// through encoding/json: the bytes JSONCodec.AppendResult is held to.
func libraryFrame(id int64, res Result) ([]byte, error) {
	w := WireResult{
		Type:     "result",
		ID:       id,
		At:       res.At.Format(time.RFC3339Nano),
		Delta:    itemSerials(res.Delta),
		Degraded: res.Degraded,
	}
	if res.Err != nil {
		w.Err = res.Err.Error()
	}
	if res.TraceID != 0 {
		w.Trace = fmt.Sprintf("%016x", res.TraceID)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(w); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}

// itemSerials renders a sequence the way a frame carries it: one
// inc.ItemSerial per item, an empty sequence as [] and not null.
func itemSerials(seq xq.Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		out[i] = inc.ItemSerial(it)
	}
	return out
}

// The hand-written frame, field by field, present and omitted: the golden
// bytes are what subscribers have been reading, and the library agrees.
func TestResultFrameGolden(t *testing.T) {
	at := time.Date(2003, 11, 5, 10, 0, 0, 0, time.UTC)
	tx := churnEl(t, `<transaction id="t1"><amount>5 &amp; up</amount></transaction>`)
	for _, c := range []struct {
		name string
		id   int64
		res  Result
		want string
	}{
		{"empty delta", 7, Result{At: at},
			`{"type":"result","id":7,"at":"2003-11-05T10:00:00Z","delta":[]}`},
		{"node and atomics", 3, Result{At: at.Add(1500 * time.Microsecond), Delta: xq.Sequence{tx, 41.0, "a\tb", true}},
			`{"type":"result","id":3,"at":"2003-11-05T10:00:00.0015Z","delta":["<transaction id=\"t1\"><amount>5 &amp; up</amount></transaction>","41","a\tb","true"]}`},
		{"carried serials", 3, Result{At: at, Delta: xq.Sequence{tx, 41.0}, Serials: []string{tx.String(), "41"}},
			`{"type":"result","id":3,"at":"2003-11-05T10:00:00Z","delta":["<transaction id=\"t1\"><amount>5 &amp; up</amount></transaction>","41"]}`},
		{"serials of another length are not the delta's", 3, Result{At: at, Delta: xq.Sequence{41.0}, Serials: []string{"x", "y"}},
			`{"type":"result","id":3,"at":"2003-11-05T10:00:00Z","delta":["41"]}`},
		{"degraded", -1, Result{At: at, Degraded: `degraded: "queue" full`},
			`{"type":"result","id":-1,"at":"2003-11-05T10:00:00Z","delta":[],"degraded":"degraded: \"queue\" full"}`},
		{"error", 9, Result{At: at, Err: errors.New("xcql: stream \"s\" is not registered")},
			`{"type":"result","id":9,"at":"2003-11-05T10:00:00Z","delta":[],"error":"xcql: stream \"s\" is not registered"}`},
		{"empty error message", 9, Result{At: at, Err: errors.New("")},
			`{"type":"result","id":9,"at":"2003-11-05T10:00:00Z","delta":[]}`},
		{"trace", 7, Result{At: at, TraceID: 0xdeadbeef},
			`{"type":"result","id":7,"at":"2003-11-05T10:00:00Z","delta":[],"trace":"00000000deadbeef"}`},
		{"everything", 1 << 40, Result{At: at.In(time.FixedZone("", 3600)), Delta: xq.Sequence{"<>&"}, Degraded: "d", Err: errors.New("e"), TraceID: 1<<64 - 1},
			`{"type":"result","id":1099511627776,"at":"2003-11-05T11:00:00+01:00","delta":["<>&"],"degraded":"d","error":"e","trace":"ffffffffffffffff"}`},
	} {
		got, err := JSONCodec{}.AppendResult([]byte("kept"), c.id, c.res)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != "kept"+c.want {
			t.Errorf("%s:\n got %s\nwant kept%s", c.name, got, c.want)
		}
		if lib, err := libraryFrame(c.id, c.res); err != nil || string(lib) != c.want {
			t.Errorf("%s: encoding/json renders %s, %v", c.name, lib, err)
		}
		sameReading(t, got[len("kept"):])
	}
}

// sameReading reads frame as a subscriber does and as encoding/json does,
// and fails unless the two readings are deeply equal.
func sameReading(t *testing.T, frame []byte) {
	t.Helper()
	got, err := new(resultReader).read(frame)
	var want WireResult
	if libErr := json.Unmarshal(frame, &want); err != nil || libErr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("subscriber read %#v (%v), encoding/json %#v (%v) from %q", got, err, want, libErr, frame)
	}
}

// FuzzResultFrame: whatever the item strings — control bytes, quotes,
// backslashes, invalid UTF-8, U+2028/2029, markup — the hand-written frame
// is the library's, byte for byte, and a subscriber decodes it.
func FuzzResultFrame(f *testing.F) {
	f.Add("<a b=\"c\">x &amp; y</a>", "plain", "degraded: x", "", int64(3), uint64(0), int64(0))
	f.Add("\x00\x01\x1f\x7f\b\f\n\r\t", "\"\\", "", "err", int64(-9), uint64(0xdeadbeef), int64(1068026400123456789))
	f.Add("\xff\xfe caf\xc3\xa9 \xe2\x80\xa8\xe2\x80\xa9 \xe2\x80", "<>&'", "\u2028", "\xc0\x80", int64(0), uint64(1), int64(-1))
	f.Add("", "\xed\xa0\x80\xf4\x90\x80\x80", "", "", int64(1<<62), uint64(1<<63), int64(253402300799000000))
	f.Fuzz(func(t *testing.T, a, b, degraded, errMsg string, id int64, trace uint64, atNs int64) {
		res := Result{At: time.Unix(0, atNs).UTC(), Delta: xq.Sequence{a, b}, Degraded: degraded, TraceID: trace}
		if errMsg != "" {
			res.Err = errors.New(errMsg)
		}
		want, err := libraryFrame(id, res)
		if err != nil {
			t.Skip(err) // a year encoding/json refuses is not a frame
		}
		got, err := JSONCodec{}.AppendResult(nil, id, res)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frames differ (%v)\n got %q\nwant %q", err, got, want)
		}
		res.Serials = []string{a, b}
		if got, err = (JSONCodec{}).AppendResult(got[:0], id, res); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("frames differ with carried serials (%v)\n got %q\nwant %q", err, got, want)
		}
		sameReading(t, got)
	})
}

// FuzzResultFrameRead: whatever the bytes, the subscriber's frame reader
// does not panic, and what it accepts encoding/json accepts and reads the
// same way. It may refuse what the library takes — null for a field, a key
// twice or in another case, a top level that is not an object — but never
// read another value; and what it returned does not change when it reads
// the next frame.
func FuzzResultFrameRead(f *testing.F) {
	at := time.Date(2003, 11, 5, 10, 0, 0, 0, time.UTC)
	for _, res := range []Result{
		{At: at},
		{At: at, Delta: xq.Sequence{"<a b=\"c\">x &amp; y</a>", "\x00\t\"\\ caf\xc3\xa9 \xe2\x80\xa8 \xff"}, Degraded: "d", Err: errors.New("e"), TraceID: 0xdeadbeef},
	} {
		frame, err := JSONCodec{}.AppendResult(nil, 7, res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	for _, s := range []string{
		`{"type":"result","future":{"a":[1,-2.5e+3,0.5E-1,true,false,null,"s",{}]},"id":1,"delta":[],"x":[]}`,
		` {"delta" : [ "\u00e9\ud83d\ude00\ud800x\udc00\/\b\f\n\r\t" , "" ] , "at":"\u0041"} ` + "\n",
		`{"\u0074ype":"t","id":-9223372036854775808}`,
		`{"id":9223372036854775808}`, `{"id":1.0}`, `{"id":1e3}`, `{"id":-0}`, `{"id":01}`,
		`{"Type":"result"}`, `{"DELTA":[]}`, `{"id":1,"id":2}`, `{"id":null}`, `{"delta":null}`, `{"delta":[null]}`,
		`{"at":"\u12"}`, `{"at":"\ud800\u12"}`, `{"at":"\x"}`, "{\"at\":\"\x01\"}", "{\"at\":\"\xed\xa0\x80\"}",
		`{"x":[[[[[[[[]]]]]]]]}`, `{"x":tru}`, `{"x":-}`, `{"x":1.}`, `{"x":1e}`,
		`[]`, `null`, ``, `{}`, `{} x`, `{"id":1,}`, `{,}`,
	} {
		f.Add([]byte(s))
	}
	next := []byte(`{"type":"overwritten","id":2,"at":"overwritten","delta":["overwritten","overwritten"]}`)
	f.Fuzz(func(t *testing.T, frame []byte) {
		var r resultReader
		got, err := r.read(frame)
		if err != nil {
			return
		}
		var want WireResult
		if err := json.Unmarshal(frame, &want); err != nil {
			t.Fatalf("reader accepted %q, which encoding/json refuses: %v", frame, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("from %q the reader read %#v, encoding/json %#v", frame, got, want)
		}
		if _, err := r.read(next); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("what the reader returned changed when it read the next frame: %#v", got)
		}
	})
}
