package obs

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for deterministic recorder
// tests.
type fakeClock struct{ now time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) Now() time.Time          { return c.now }
func (c *fakeClock) Advance(d time.Duration) { c.now = c.now.Add(d) }

func TestTraceContextString(t *testing.T) {
	tc := TraceContext{TraceID: 0xdeadbeef, SpanID: 0x42}
	s := tc.String()
	got, ok := ParseTraceContext(s)
	if !ok || got != tc {
		t.Fatalf("round trip %q -> %+v ok=%v, want %+v", s, got, ok, tc)
	}
	for _, bad := range []string{"", "zz", "12345", "0000000000000000-0000000000000001", strings.Repeat("f", 64)} {
		if _, ok := ParseTraceContext(bad); ok {
			t.Fatalf("ParseTraceContext(%q) accepted", bad)
		}
	}
}

func TestFlightRecorderSpanTree(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{SampleEvery: 1, Clock: clk.Now})
	root := rec.Start(rec.NewTrace(), "publish").Annotate("credit", 5, 7)
	clk.Advance(time.Millisecond)
	child := rec.Start(root.Context(), "segstore.append").Annotate("", 5, 7)
	clk.Advance(time.Millisecond)
	child.SetDetail("lsn=1")
	child.End()
	root.End()
	rec.Flush()

	traces := rec.Traces(TraceFilter{})
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want 1", len(traces))
	}
	tr := traces[0]
	if len(tr.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(tr.Spans))
	}
	// spans are sorted by start time: root first
	if tr.Spans[0].Name != "publish" || tr.Spans[1].Name != "segstore.append" {
		t.Fatalf("span order %q, %q", tr.Spans[0].Name, tr.Spans[1].Name)
	}
	if tr.Spans[1].Parent != tr.Spans[0].SpanID {
		t.Fatalf("child parent %d, want root span id %d", tr.Spans[1].Parent, tr.Spans[0].SpanID)
	}
	if tr.Spans[1].Detail != "lsn=1" {
		t.Fatalf("child detail %q", tr.Spans[1].Detail)
	}
	if tr.Duration != 2*time.Millisecond {
		t.Fatalf("e2e %v, want 2ms", tr.Duration)
	}
	if got := rec.TraceByID(tr.TraceID); got == nil || got.TraceID != tr.TraceID {
		t.Fatalf("TraceByID(%d) = %+v", tr.TraceID, got)
	}
}

func TestFlightRecorderTailSampling(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{SampleEvery: 10, Clock: clk.Now})
	// warm the e2e histogram with slow traces so the p99 threshold sits
	// far above the fast traffic that follows
	for i := 0; i < 40; i++ {
		sp := rec.Start(rec.NewTrace(), "publish")
		clk.Advance(100 * time.Millisecond)
		sp.End()
		rec.Flush()
	}
	before := rec.Stats()
	// 100 fast traces, all well under the threshold: only the 1-in-10
	// uniform sample survives
	for i := 0; i < 100; i++ {
		sp := rec.Start(rec.NewTrace(), "publish")
		clk.Advance(time.Millisecond)
		sp.End()
		rec.Flush()
	}
	st := rec.Stats()
	if st.Finalized != 140 {
		t.Fatalf("finalized %d, want 140", st.Finalized)
	}
	fastKept := st.Kept - before.Kept
	if fastKept != 10 {
		t.Fatalf("kept %d of 100 fast traces with SampleEvery=10, want 10", fastKept)
	}
	if st.Kept+st.SampledOut != st.Finalized {
		t.Fatalf("kept %d + sampled-out %d != finalized %d", st.Kept, st.SampledOut, st.Finalized)
	}

	// a slow outlier is always kept (tail-based: the decision happens at
	// finalize, when the whole latency is known)
	sp := rec.Start(rec.NewTrace(), "publish")
	clk.Advance(time.Second)
	sp.End()
	rec.Flush()
	tr := rec.Traces(TraceFilter{})
	last := tr[len(tr)-1]
	if last.Keep != "p99" || last.Duration != time.Second {
		t.Fatalf("outlier keep=%q dur=%v, want p99/1s", last.Keep, last.Duration)
	}
}

func TestFlightRecorderFlagKeepsTrace(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{SampleEvery: 1 << 30, Clock: clk.Now})
	// unflagged: sampled out (SampleEvery is huge)
	sp := rec.Start(rec.NewTrace(), "publish")
	sp.End()
	// flagged: kept regardless of the sampler
	sp = rec.Start(rec.NewTrace(), "publish")
	tid := sp.Context().TraceID
	rec.Flag(tid, "gap")
	rec.Flag(tid, "gap") // dup reason collapses
	rec.Flag(tid, "degraded")
	sp.End()
	rec.Flush()

	traces := rec.Traces(TraceFilter{})
	if len(traces) != 1 {
		t.Fatalf("kept %d traces, want only the flagged one", len(traces))
	}
	if traces[0].Keep != "flag" {
		t.Fatalf("keep = %q, want flag", traces[0].Keep)
	}
	if len(traces[0].Flags) != 2 || traces[0].Flags[0] != "gap" || traces[0].Flags[1] != "degraded" {
		t.Fatalf("flags = %v", traces[0].Flags)
	}
	// flagging an unknown or zero trace id is a no-op
	rec.Flag(0, "nope")
	rec.Flag(0xabcdef, "nope")
}

func TestFlightRecorderRingBound(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{Capacity: 4, SampleEvery: 1, Clock: clk.Now})
	for i := 0; i < 10; i++ {
		sp := rec.Start(rec.NewTrace(), fmt.Sprintf("t%d", i))
		sp.End()
		rec.Flush()
	}
	traces := rec.Traces(TraceFilter{})
	if len(traces) != 4 {
		t.Fatalf("ring holds %d, want 4", len(traces))
	}
	// oldest first, and the oldest six were overwritten
	if traces[0].Spans[0].Name != "t6" || traces[3].Spans[0].Name != "t9" {
		t.Fatalf("ring contents %q..%q, want t6..t9", traces[0].Spans[0].Name, traces[3].Spans[0].Name)
	}
	if st := rec.Stats(); st.RingDropped != 6 {
		t.Fatalf("ring dropped %d, want 6", st.RingDropped)
	}
}

func TestFlightRecorderSpanCap(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{MaxSpansPerTrace: 3, SampleEvery: 1, Clock: clk.Now})
	tc := rec.NewTrace()
	for i := 0; i < 5; i++ {
		rec.Start(tc, "s").End()
	}
	rec.Flush()
	traces := rec.Traces(TraceFilter{})
	if len(traces) != 1 || len(traces[0].Spans) != 3 || !traces[0].Truncated {
		t.Fatalf("spans=%d truncated=%v, want 3/true", len(traces[0].Spans), traces[0].Truncated)
	}
	if st := rec.Stats(); st.TruncatedSpans != 2 {
		t.Fatalf("truncated spans %d, want 2", st.TruncatedSpans)
	}
}

func TestFlightRecorderMaxActiveEviction(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{MaxActive: 2, SampleEvery: 1, Clock: clk.Now})
	// three concurrently assembling traces: the oldest is force-finalized
	sps := make([]*Span, 3)
	for i := range sps {
		sps[i] = rec.Start(rec.NewTrace(), fmt.Sprintf("t%d", i))
		sps[i].End() // ended spans still buffer until quiescence/flush
	}
	if st := rec.Stats(); st.Active > 2 {
		t.Fatalf("active %d, want <= 2", st.Active)
	}
	rec.Flush()
	if got := len(rec.Traces(TraceFilter{})); got != 3 {
		t.Fatalf("kept %d, want all 3", got)
	}
}

func TestFlightRecorderQuiescence(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{SampleEvery: 1, Quiescence: 50 * time.Millisecond, Clock: clk.Now})
	rec.Start(rec.NewTrace(), "publish").End()
	// not yet quiescent: still assembling, not readable
	if got := len(rec.Traces(TraceFilter{})); got != 0 {
		t.Fatalf("readable before quiescence: %d", got)
	}
	clk.Advance(time.Second)
	if got := len(rec.Traces(TraceFilter{})); got != 1 {
		t.Fatalf("readable after quiescence: %d, want 1", got)
	}
}

func TestFlightRecorderFilters(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{SampleEvery: 1, Clock: clk.Now})
	a := rec.Start(rec.NewTrace(), "publish").Annotate("credit", 5, 1)
	rec.Start(a.Context(), "fanout").SetReg(7).End()
	a.End()
	rec.Start(rec.NewTrace(), "publish").Annotate("orders", 9, 2).End()
	rec.Flush()

	cases := []struct {
		f    TraceFilter
		want int
	}{
		{TraceFilter{}, 2},
		{TraceFilter{Stream: "credit"}, 1},
		{TraceFilter{Stream: "nope"}, 0},
		{TraceFilter{TSID: 9}, 1},
		{TraceFilter{Reg: 7}, 1},
		{TraceFilter{Stream: "credit", Reg: 7}, 1},
		{TraceFilter{Stream: "orders", Reg: 7}, 0},
		{TraceFilter{Limit: 1}, 1},
	}
	for _, c := range cases {
		if got := len(rec.Traces(c.f)); got != c.want {
			t.Errorf("Traces(%+v) = %d, want %d", c.f, got, c.want)
		}
	}
}

func TestFlightRecorderServeHTTP(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{SampleEvery: 1, Clock: clk.Now})
	sp := rec.Start(rec.NewTrace(), "publish").Annotate("credit", 5, 1)
	tid := sp.Context().TraceID
	sp.End()
	rec.Flush()

	get := func(url string) (*httptest.ResponseRecorder, map[string]any) {
		w := httptest.NewRecorder()
		rec.ServeHTTP(w, httptest.NewRequest("GET", url, nil))
		var body map[string]any
		if w.Code == 200 {
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("GET %s: bad JSON: %v", url, err)
			}
		}
		return w, body
	}

	_, body := get("/v1/tracez")
	traces, _ := body["traces"].([]any)
	if len(traces) != 1 {
		t.Fatalf("tracez listed %d traces, want 1: %v", len(traces), body)
	}
	if _, ok := body["stats"]; !ok {
		t.Fatalf("tracez response missing stats: %v", body)
	}

	// single-trace lookup returns the record itself
	_, body = get(fmt.Sprintf("/v1/tracez?trace=%016x", tid))
	if body["trace"] != fmt.Sprintf("%016x", tid) {
		t.Fatalf("single-trace lookup failed: %v", body)
	}
	if spans, _ := body["spans"].([]any); len(spans) != 1 {
		t.Fatalf("single-trace lookup spans: %v", body)
	}
	if w, _ := get("/v1/tracez?trace=00000000000000ff"); w.Code != 404 {
		t.Fatalf("unknown trace id: code %d, want 404", w.Code)
	}
	if w, _ := get("/v1/tracez?stream=nope"); w.Code != 200 {
		t.Fatalf("filter miss: code %d, want 200 with empty list", w.Code)
	}
}

func TestFlightRecorderRenderAndMetrics(t *testing.T) {
	clk := newFakeClock()
	rec := NewFlightRecorder(FlightRecorderOptions{SampleEvery: 1, Clock: clk.Now})
	root := rec.Start(rec.NewTrace(), "publish").Annotate("credit", 2, 1)
	clk.Advance(time.Millisecond)
	rec.Start(root.Context(), "deliver").End()
	root.End()
	rec.Flush()

	out := rec.Render(0)
	if !strings.Contains(out, "publish") || !strings.Contains(out, "deliver") {
		t.Fatalf("render missing spans:\n%s", out)
	}
	reg := NewRegistry()
	rec.RegisterMetrics(reg, "trace")
	var sb strings.Builder
	if _, err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"trace_traces_kept 1", "trace_e2e_count 1"} {
		if !strings.Contains(sb.String(), name) {
			t.Fatalf("metrics missing %q:\n%s", name, sb.String())
		}
	}
}

// TestNilRecorderZeroAlloc pins the PR-3 guarantee for the new tracer:
// with tracing disabled (nil recorder) the entire span API is a chain of
// nil checks — zero allocations on the hot path.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var rec *FlightRecorder
	var h Histogram
	allocs := testing.AllocsPerRun(100, func() {
		tc := rec.NewTrace()
		sp := rec.Start(tc, "publish")
		sp = sp.Annotate("credit", 5, 1)
		sp = sp.SetReg(3)
		_ = sp.Context()
		sp.End()
		rec.Flag(tc.TraceID, "gap")
		rec.Flush()
		h.ObserveExemplar(time.Millisecond, tc.TraceID)
		_ = rec.Traces(TraceFilter{})
		_ = rec.TraceByID(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %v per op, want 0", allocs)
	}
}

func TestUntracedContextZeroAlloc(t *testing.T) {
	// recorder enabled but the fragment is untraced: Start returns nil
	// and nothing downstream allocates
	rec := NewFlightRecorder(FlightRecorderOptions{})
	allocs := testing.AllocsPerRun(100, func() {
		sp := rec.Start(TraceContext{}, "deliver")
		sp.Annotate("credit", 5, 1).End()
	})
	if allocs != 0 {
		t.Fatalf("untraced Start allocated %v per op, want 0", allocs)
	}
}
