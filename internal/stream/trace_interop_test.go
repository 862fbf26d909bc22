package stream

import (
	"net"
	"strings"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
)

func dialTraced(t *testing.T, addr string, rec *obs.FlightRecorder) *Client {
	t.Helper()
	c, err := DialTCP(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetFlightRecorder(rec)
	return c
}

// listenFragments registers a delivery listener and returns its channel.
// Call it BEFORE publishing: a client that decodes and applies a frame
// before the listener is registered has nobody to tell.
func listenFragments(c *Client) <-chan *fragment.Fragment {
	// roomy enough for every fragment these tests publish, so the
	// client's feeding goroutine never blocks on the test
	ch := make(chan *fragment.Fragment, 64)
	c.OnFragment(func(f *fragment.Fragment) { ch <- f })
	return ch
}

func collectFragments(t *testing.T, ch <-chan *fragment.Fragment, n int) []*fragment.Fragment {
	t.Helper()
	var got []*fragment.Fragment
	deadline := time.After(5 * time.Second)
	for len(got) < n {
		select {
		case f := <-ch:
			got = append(got, f)
		case <-deadline:
			t.Fatalf("timed out with %d/%d fragments", len(got), n)
		}
	}
	return got
}

// TestTraceInteropNewServerOldClient: a tracing server stamps every
// published fragment; a client that knows nothing about tracing (no
// recorder attached) must receive every fragment undisturbed — the
// trace attr is carried but ignored.
func TestTraceInteropNewServerOldClient(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	rec := obs.NewFlightRecorder(obs.FlightRecorderOptions{SampleEvery: 1})
	s.SetFlightRecorder(rec)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ServeTCP(s, ln) }()

	c := dialTraced(t, ln.Addr().String(), nil) // "old" client: tracing unaware
	defer c.Close()
	delivered := listenFragments(c)

	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-01T01:00:00", "11"))
	got := collectFragments(t, delivered, 2)
	for _, f := range got {
		if !f.Trace.Valid() {
			t.Fatalf("fragment seq=%d lost its trace over the wire", f.Seq)
		}
	}
	if reason, degraded := c.Degraded(); degraded {
		t.Fatalf("old client degraded by trace attrs: %s", reason)
	}
}

// TestTraceInteropOldServerNewClient: a server that never stamps traces
// (tracing off — exactly what a pre-trace binary sends) feeds a tracing
// client. The client must deliver everything, record no spans (the
// untraced context stops propagation), and stay healthy.
func TestTraceInteropOldServerNewClient(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t)) // no recorder: legacy wire
	defer s.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = ServeTCP(s, ln) }()

	rec := obs.NewFlightRecorder(obs.FlightRecorderOptions{SampleEvery: 1})
	c := dialTraced(t, ln.Addr().String(), rec)
	defer c.Close()
	delivered := listenFragments(c)

	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-01T01:00:00", "11"))
	got := collectFragments(t, delivered, 2)
	for _, f := range got {
		if f.Trace.Valid() {
			t.Fatalf("fragment seq=%d grew a trace out of nowhere: %+v", f.Seq, f.Trace)
		}
	}
	rec.Flush()
	if traces := rec.Traces(obs.TraceFilter{}); len(traces) != 0 {
		t.Fatalf("client recorded %d traces from an untraced stream", len(traces))
	}
	if reason, degraded := c.Degraded(); degraded {
		t.Fatalf("client degraded: %s", reason)
	}
}

// TestTraceInteropWireForms pins the wire-level contract the two tests
// above rely on: traced fragments carry the attr, untraced ones omit
// it, and stripping the attr (what a legacy relay that re-serializes
// through its own older parser would do) yields a clean untraced
// fragment rather than an error.
func TestTraceInteropWireForms(t *testing.T) {
	f := eventFragment(1, "2003-01-01T01:00:00", "11")
	plain := f.String()
	if strings.Contains(plain, "trace=") {
		t.Fatalf("untraced wire form has a trace attr: %s", plain)
	}
	traced := f.WithTrace(obs.TraceContext{TraceID: 0xabc, SpanID: 1}).String()
	if !strings.Contains(traced, `trace="0000000000000abc-0000000000000001"`) {
		t.Fatalf("traced wire form missing attr: %s", traced)
	}
	// a legacy peer re-serializing through its pre-trace parser drops
	// the attr; the result must still parse and simply be untraced
	stripped := strings.Replace(traced, ` trace="0000000000000abc-0000000000000001"`, "", 1)
	g, err := fragment.Parse(stripped)
	if err != nil {
		t.Fatalf("stripped form does not parse: %v", err)
	}
	if g.Trace.Valid() {
		t.Fatalf("stripped form kept a trace: %+v", g.Trace)
	}
	if g.FillerID != f.FillerID || g.TSID != f.TSID {
		t.Fatalf("stripped form drifted: %+v", g)
	}
}
