package registry

// Endpoint coverage for the HTTP + WebSocket query API: register /
// unregister / subscribe / eval / registryz on a real listener, the
// structured-error contract for every rejection kind, and the
// registration-lifetime rules (?id drains a POST-created registration,
// a bare subscribe's registration dies with the connection).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/xcql"
)

// apiFixture is one store + runtime + registry + API on a live listener.
type apiFixture struct {
	t     *testing.T
	store *fragment.Store
	reg   *Registry
	api   *API
	srv   *httptest.Server
	at    time.Time
}

func newAPIFixture(t *testing.T) *apiFixture {
	t.Helper()
	st := fragment.NewStore(churnStructure(t))
	base := time.Date(2003, time.June, 1, 0, 0, 0, 0, time.UTC)
	fx := &apiFixture{t: t, store: st, at: base}
	add := func(f *fragment.Fragment) {
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	add(fragment.New(0, 1, base, churnEl(t, `<log><hole id="100" tsid="2"/><hole id="101" tsid="2"/><hole id="102" tsid="2"/></log>`)))
	add(fragment.New(100, 2, base, churnEl(t, `<event>1</event>`)))

	rt := xcql.NewRuntime()
	rt.RegisterStream("log", st)
	fx.reg = New(func() time.Time { return fx.at })
	fx.api = NewAPI(fx.reg, rt.Compile)
	fx.api.SetClock(func() time.Time { return fx.at })
	fx.srv = httptest.NewServer(fx.api)
	t.Cleanup(fx.srv.Close)
	return fx
}

// publish adds an event filler and pushes it through the registry.
func (fx *apiFixture) publish(fid, val int) {
	fx.t.Helper()
	fx.at = fx.at.Add(time.Second)
	f := fragment.New(fid, 2, fx.at, churnEl(fx.t, fmt.Sprintf(`<event>%d</event>`, val)))
	if err := fx.store.Add(f); err != nil {
		fx.t.Fatal(err)
	}
	fx.reg.Apply(f)
}

func (fx *apiFixture) post(path, body string) (*http.Response, []byte) {
	fx.t.Helper()
	resp, err := http.Post(fx.srv.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		fx.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

func (fx *apiFixture) addr() string { return strings.TrimPrefix(fx.srv.URL, "http://") }

// decodeError asserts the structured {error:{kind,message}} envelope.
func decodeError(t *testing.T, body []byte, wantKind string) {
	t.Helper()
	var we wireError
	if err := json.Unmarshal(body, &we); err != nil {
		t.Fatalf("error body is not JSON: %v: %q", err, body)
	}
	if we.Error.Kind != wantKind {
		t.Fatalf("error kind = %q, want %q (message %q)", we.Error.Kind, wantKind, we.Error.Message)
	}
	if we.Error.Message == "" {
		t.Fatalf("error message empty for kind %q", wantKind)
	}
}

func TestAPIRegisterSubscribeDelta(t *testing.T) {
	fx := newAPIFixture(t)

	// POST-register, then drain it over ?id=N
	resp, body := fx.post("/v1/query", `{"query":"for $e in stream(\"log\")//event return $e","incremental":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	var ack registerAck
	if err := json.Unmarshal(body, &ack); err != nil {
		t.Fatal(err)
	}
	if ack.ID == 0 || ack.Group == "" || ack.Mode != "QaC+" {
		t.Fatalf("ack missing fields: %+v", ack)
	}

	c, err := wsDial(fmt.Sprintf("http://%s/v1/subscribe?id=%d", fx.addr(), ack.ID), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	first, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeAck(first)
	if err != nil || got.ID != ack.ID {
		t.Fatalf("subscribe ack = %+v (%v), want id %d", got, err, ack.ID)
	}

	// first delivery reseeds the whole standing result (events 1 and 2),
	// the next one is a true single-item delta
	fx.publish(101, 2)
	frame, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	res, err := new(resultReader).read(frame)
	if err != nil {
		t.Fatal(err)
	}
	if res.Type != "result" || res.ID != ack.ID {
		t.Fatalf("unexpected frame: %+v", res)
	}
	if len(res.Delta) != 2 {
		t.Fatalf("reseed delta = %q, want the full 2-event standing result", res.Delta)
	}
	fx.publish(102, 3)
	frame, err = c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if res, err = new(resultReader).read(frame); err != nil {
		t.Fatal(err)
	}
	if len(res.Delta) != 1 || !strings.Contains(res.Delta[0], ">3</event>") {
		t.Fatalf("delta = %q, want just the new event", res.Delta)
	}

	// DELETE unregisters; the pump then closes the socket
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/query?id=%d", fx.srv.URL, ack.ID), nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("unregister: %d", dresp.StatusCode)
	}
	if got := fx.reg.Stats().Registrations; got != 0 {
		t.Fatalf("registrations after DELETE = %d, want 0", got)
	}
}

func TestAPISubscribeConnScopedLifetime(t *testing.T) {
	fx := newAPIFixture(t)
	sub, err := DialSubscribe(fx.addr(), RegisterRequest{
		Query: `for $e in stream("log")//event return $e`,
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := fx.reg.Stats().Registrations; got != 1 {
		t.Fatalf("registrations after dial = %d, want 1", got)
	}

	fx.publish(101, 2)
	res, err := sub.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delta) != 2 {
		t.Fatalf("reseed delta = %q, want the full 2-event standing result", res.Delta)
	}
	fx.publish(102, 3)
	if res, err = sub.Next(); err != nil {
		t.Fatal(err)
	}
	if len(res.Delta) != 1 || !strings.Contains(res.Delta[0], ">3</event>") {
		t.Fatalf("delta = %q, want just the new event", res.Delta)
	}

	// closing the socket is the unregister protocol
	sub.Close()
	deadline := time.Now().Add(2 * time.Second)
	for fx.reg.Stats().Registrations != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("registration outlived its connection")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSubscribeSeedAboveRequestBound: the subscriber's reader bounds
// server result frames on their own, far above the 1 MiB bound on client
// requests — a seed carries the whole standing result in one frame.
func TestSubscribeSeedAboveRequestBound(t *testing.T) {
	fx := newAPIFixture(t)
	sub, err := DialSubscribe(fx.addr(), RegisterRequest{
		Query: `for $e in stream("log")//event return $e`,
	}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	big := strings.Repeat("x", wsMaxPayload+4096)
	fx.at = fx.at.Add(time.Second)
	f := fragment.New(101, 2, fx.at, churnEl(t, "<event>"+big+"</event>"))
	if err := fx.store.Add(f); err != nil {
		t.Fatal(err)
	}
	fx.reg.Apply(f)
	res, err := sub.Next()
	if err != nil {
		t.Fatalf("seed above %d bytes did not arrive: %v", wsMaxPayload, err)
	}
	if len(res.Delta) != 2 || !strings.Contains(res.Delta[1], big) {
		t.Fatalf("seed delta holds %d items, want both events with the large one intact", len(res.Delta))
	}
}

// TestSubscriberRejectsOversizedFrame: past its own bound the reader
// fails with a typed error naming the frame size, before allocating.
func TestSubscriberRejectsOversizedFrame(t *testing.T) {
	hdr := []byte{0x80 | opText, 127, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint64(hdr[2:], wsMaxResultFrame+1)
	c := &wsClient{br: bufio.NewReader(bytes.NewReader(hdr))}
	_, err := c.ReadMessage()
	var tooLarge *FrameTooLargeError
	if !errors.As(err, &tooLarge) || tooLarge.Size != wsMaxResultFrame+1 || tooLarge.Limit != wsMaxResultFrame {
		t.Fatalf("oversized frame: got %v, want a *FrameTooLargeError naming %d bytes", err, wsMaxResultFrame+1)
	}
}

func TestAPIErrorContract(t *testing.T) {
	fx := newAPIFixture(t)
	cases := []struct {
		name, path, body string
		status           int
		kind             string
	}{
		{"malformed JSON", "/v1/query", `{not json`, http.StatusBadRequest, "request"},
		{"missing query", "/v1/query", `{}`, http.StatusBadRequest, "request"},
		{"bad mode", "/v1/query", `{"query":"1","mode":"warp"}`, http.StatusBadRequest, "mode"},
		{"malformed XCQL", "/v1/query", `{"query":"for $x in ("}`, http.StatusBadRequest, "compile"},
		{"unknown codec", "/v1/query", `{"query":"1","codec":"xdr"}`, http.StatusBadRequest, "codec"},
		{"eval malformed XCQL", "/v1/eval", `{"query":"let $ :="}`, http.StatusBadRequest, "compile"},
		{"eval bad at", "/v1/eval", `{"query":"1","at":"yesterday"}`, http.StatusBadRequest, "request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := fx.post(tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			decodeError(t, body, tc.kind)
		})
	}

	t.Run("unknown route", func(t *testing.T) {
		resp, err := http.Get(fx.srv.URL + "/v2/nope")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
	t.Run("delete unknown id", func(t *testing.T) {
		req, _ := http.NewRequest(http.MethodDelete, fx.srv.URL+"/v1/query?id=99", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("status = %d", resp.StatusCode)
		}
	})
	t.Run("overload is 429", func(t *testing.T) {
		fx.reg.SetMaxRegistrations(1)
		defer fx.reg.SetMaxRegistrations(0)
		resp, body := fx.post("/v1/query", `{"query":"1"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first register: %d %s", resp.StatusCode, body)
		}
		resp, body = fx.post("/v1/query", `{"query":"2"}`)
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
		}
		decodeError(t, body, "overload")
	})
	for _, tc := range []struct{ name, first, kind string }{
		{"ws register error frame", `{"query":"for $x in ("}`, "compile"},
		{"ws unknown codec", `{"query":"1","codec":"xdr"}`, "codec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := wsDial("http://"+fx.addr()+"/v1/subscribe", 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.WriteText([]byte(tc.first)); err != nil {
				t.Fatal(err)
			}
			frame, err := c.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			decodeError(t, frame, tc.kind)
		})
	}
}

func TestAPIEvalAndRegistryz(t *testing.T) {
	fx := newAPIFixture(t)
	resp, body := fx.post("/v1/eval", `{"query":"count(stream(\"log\")//event)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("eval: %d %s", resp.StatusCode, body)
	}
	var out struct {
		At    string   `json:"at"`
		Items []string `json:"items"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Items) != 1 || out.Items[0] != "1" {
		t.Fatalf("items = %q, want [\"1\"]", out.Items)
	}

	if _, err := DialSubscribe(fx.addr(), RegisterRequest{
		Query: `for $e in stream("log")//event return $e`,
	}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	fx.publish(101, 2) // seeds the registration: its buffers hold the standing result
	resp2, body2 := func() (*http.Response, []byte) {
		r, err := http.Get(fx.srv.URL + "/v1/registryz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(r.Body)
		return r, buf.Bytes()
	}()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("registryz: %d", resp2.StatusCode)
	}
	var rz struct {
		Stats         Stats        `json:"stats"`
		Groups        []GroupStats `json:"groups"`
		Registrations []RegStats   `json:"registrations"`
	}
	if err := json.Unmarshal(body2, &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Stats.Registrations != 1 || len(rz.Groups) != 1 || len(rz.Registrations) != 1 {
		t.Fatalf("registryz shows %d registrations / %d groups / %d rows, want 1/1/1: %s",
			rz.Stats.Registrations, len(rz.Groups), len(rz.Registrations), body2)
	}
	// the status row reads the counters the memory-bound tests assert, and
	// says how the engine decomposed the plan
	row := rz.Registrations[0]
	if row.BufferBytes <= 0 || row.BufferHWMBytes < row.BufferBytes {
		t.Fatalf("registryz row reports buffer %d B (high-water %d B) for a seeded registration: %s",
			row.BufferBytes, row.BufferHWMBytes, body2)
	}
	if want := "1 piece (per-binding on event)"; row.Strategy != want {
		t.Fatalf("registryz row strategy %q, want %q", row.Strategy, want)
	}
}
