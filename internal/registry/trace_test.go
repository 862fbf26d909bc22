package registry

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xcql/internal/obs"
	"xcql/internal/xcql"
)

func TestWireResultCarriesTrace(t *testing.T) {
	b, err := JSONCodec{}.AppendResult(nil, 7, Result{At: time.Unix(0, 0).UTC(), TraceID: 0xdeadbeef})
	if err != nil {
		t.Fatal(err)
	}
	var w WireResult
	if err := json.Unmarshal(b, &w); err != nil {
		t.Fatal(err)
	}
	if w.Trace != "00000000deadbeef" {
		t.Fatalf("wire trace %q, want 00000000deadbeef", w.Trace)
	}
	// untraced deliveries omit the field entirely (legacy wire shape)
	b, err = JSONCodec{}.AppendResult(nil, 7, Result{At: time.Unix(0, 0).UTC()})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "trace") {
		t.Fatalf("untraced delivery leaked a trace field: %s", b)
	}
}

func TestAPITracezEndpoint(t *testing.T) {
	rt := ixcqlRuntime(t)
	reg := New(nil)
	api := NewAPI(reg, rt.Compile)

	// without a recorder the endpoint 404s with the structured envelope
	w := httptest.NewRecorder()
	api.ServeHTTP(w, httptest.NewRequest("GET", "/v1/tracez", nil))
	if w.Code != 404 || !strings.Contains(w.Body.String(), "no flight recorder") {
		t.Fatalf("no-recorder tracez: code=%d body=%s", w.Code, w.Body.String())
	}

	rec := obs.NewFlightRecorder(obs.FlightRecorderOptions{SampleEvery: 1})
	api.SetFlightRecorder(rec)
	rec.Start(rec.NewTrace(), "publish").End()
	rec.Flush()
	w = httptest.NewRecorder()
	api.ServeHTTP(w, httptest.NewRequest("GET", "/v1/tracez", nil))
	if w.Code != 200 {
		t.Fatalf("tracez: code %d", w.Code)
	}
	var body struct {
		Traces []json.RawMessage `json:"traces"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Traces) != 1 {
		t.Fatalf("tracez lists %d traces, want 1", len(body.Traces))
	}
}

// ixcqlRuntime builds a runtime for compile-backed API tests, matching
// the api_test fixture shape.
func ixcqlRuntime(t *testing.T) *xcql.Runtime {
	t.Helper()
	return xcql.NewRuntime()
}
