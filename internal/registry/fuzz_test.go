package registry

// FuzzQueryAPIRequest throws arbitrary bytes at the service's two
// untrusted decode surfaces: the register-request body (HTTP POST and
// the first WebSocket frame share decodeRegisterRequest) driven through
// the real handler, and the raw RFC 6455 frame reader that sits
// directly on the hijacked socket. Nothing here may panic; malformed
// XCQL must come back as a structured {error:{kind,message}} envelope,
// never a bare 500.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
)

func FuzzQueryAPIRequest(f *testing.F) {
	// seeds: valid registrations, every malformed shape the error
	// contract distinguishes, and frame-reader edge bytes
	f.Add([]byte(`{"query":"for $e in stream(\"log\")//event return $e","incremental":true}`))
	f.Add([]byte(`{"query":"1","mode":"QaC","codec":"json","buffer":4}`))
	// predicates pushed below the access path, and ones that are not
	f.Add([]byte(`{"query":"for $e in stream(\"log\")//event where $e/@level = \"error\" and $e/@code >= 500 return $e","incremental":true}`))
	f.Add([]byte(`{"query":"stream(\"log\")//event[@at < 2003-06-01T00:00:00][1]","mode":"QaC++"}`))
	f.Add([]byte(`{"query":"stream(\"log\")//event[@vtFrom = \"now\" or position() = last()]","mode":"QaC+"}`))
	f.Add([]byte(`{"query":"for $x in ("}`))       // compile error
	f.Add([]byte(`{"query":"1","mode":"warp"}`))   // mode error
	f.Add([]byte(`{"query":"1","codec":"xdr"}`))   // codec error
	f.Add([]byte(`{}`))                            // missing query
	f.Add([]byte(`{not json`))                     // invalid JSON
	f.Add([]byte(``))                              // empty body
	f.Add([]byte("\x81\x05hello"))                 // unmasked ws text frame
	f.Add([]byte("\x81\x85\x00\x00\x00\x00hello")) // masked ws text frame
	f.Add([]byte{0x88, 0x00})                      // close frame
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0x81}, 16))

	structure, err := tagstruct.ParseString(churnStructureXML)
	if err != nil {
		f.Fatal(err)
	}
	st := fragment.NewStore(structure)
	rt := xcql.NewRuntime()
	rt.RegisterStream("log", st)
	reg := New(func() time.Time { return time.Date(2003, 6, 1, 0, 0, 0, 0, time.UTC) })
	api := NewAPI(reg, rt.Compile)

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1) the shared request decoder in isolation
		if req, err := decodeRegisterRequest(data); err == nil && req.Query == "" {
			t.Fatal("decoder accepted a request with no query")
		}

		// 2) the full register handler (recorder-driven so fuzz
		// throughput isn't bound by real sockets): any outcome must be
		// a structured JSON envelope, and every registration must be
		// closed so iterations don't accumulate state
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(data)))
		body := rec.Body.Bytes()
		switch rec.Code {
		case http.StatusOK:
			var ack registerAck
			if err := json.Unmarshal(body, &ack); err != nil || ack.ID == 0 {
				t.Fatalf("200 with a non-ack body: %q", body)
			}
			drec := httptest.NewRecorder()
			api.ServeHTTP(drec, httptest.NewRequest(http.MethodDelete,
				"/v1/query?id="+ack2str(ack.ID), nil))
			if drec.Code != http.StatusOK {
				t.Fatalf("unregister of fuzz-created %d: %d %q", ack.ID, drec.Code, drec.Body.Bytes())
			}
		case http.StatusInternalServerError:
			t.Fatalf("register 500 on %q: %q", data, body)
		default:
			var we wireError
			if err := json.Unmarshal(body, &we); err != nil || we.Error.Kind == "" {
				t.Fatalf("unstructured error (status %d): %q", rec.Code, body)
			}
		}

		// 3) the raw WebSocket frame reader over the same bytes: error
		// or bounded payload, never a panic, never an oversized accept
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ {
			op, payload, err := readWSFrame(br, wsMaxPayload)
			if err != nil {
				break
			}
			if int64(len(payload)) > wsMaxPayload {
				t.Fatalf("frame reader accepted %d-byte payload (op %d)", len(payload), op)
			}
		}
	})
}

func ack2str(id int64) string {
	b, _ := json.Marshal(id)
	return string(b)
}
