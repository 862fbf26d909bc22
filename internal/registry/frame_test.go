package registry

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
		Delta:    inc.ItemSerials(res.Delta),
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
		if w, err := decodeWireResult(got); err != nil || len(w.Delta) != 2 || w.ID != id {
			t.Fatalf("subscriber decoded %+v, %v from %q", w, err, got)
		}
	})
}
