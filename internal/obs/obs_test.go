package obs

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestEvalStatsNilSafe(t *testing.T) {
	var s *EvalStats
	s.AddFillers(3)
	s.AddHoles(1)
	s.AddTSIDLookup(5)
	s.AddNodes(2)
	if got := s.String(); got != "<no stats>" {
		t.Fatalf("nil String() = %q", got)
	}
}

func TestEvalStatsCounters(t *testing.T) {
	s := &EvalStats{Plan: "QaC+"}
	s.AddFillers(10)
	s.AddFillers(5)
	s.AddHoles(2)
	s.AddTSIDLookup(7) // hit
	s.AddTSIDLookup(0) // miss
	s.AddNodes(4)
	if s.FillersScanned != 15 {
		t.Errorf("FillersScanned = %d, want 15", s.FillersScanned)
	}
	if s.HolesResolved != 2 {
		t.Errorf("HolesResolved = %d, want 2", s.HolesResolved)
	}
	if s.TSIDLookups != 2 || s.TSIDIndexHits != 7 || s.TSIDIndexMisses != 1 {
		t.Errorf("tsid = %d/%d/%d, want 2/7/1", s.TSIDLookups, s.TSIDIndexHits, s.TSIDIndexMisses)
	}
	if s.NodesConstructed != 4 {
		t.Errorf("NodesConstructed = %d, want 4", s.NodesConstructed)
	}
	if !strings.Contains(s.String(), "plan=QaC+") {
		t.Errorf("String() missing plan: %q", s.String())
	}
}

func TestCollectorSinkTimeline(t *testing.T) {
	c := &CollectorSink{}
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	c.Span("execute", "QaC", base.Add(time.Millisecond), 2*time.Millisecond)
	c.Span("parse", "q", base, time.Millisecond)
	if got := len(c.Spans()); got != 2 {
		t.Fatalf("Spans() len = %d, want 2", got)
	}
	tl := c.Timeline()
	// timeline is ordered by start, so parse must precede execute
	pi, ei := strings.Index(tl, "parse"), strings.Index(tl, "execute")
	if pi < 0 || ei < 0 || pi > ei {
		t.Fatalf("timeline order wrong:\n%s", tl)
	}
	c.Reset()
	if c.Timeline() != "(no spans)" {
		t.Fatalf("Reset did not clear spans")
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames").Add(41)
	r.Counter("frames").Inc() // same counter instance
	r.Counter("drops")        // zero-valued
	r.Gauge("lag", func() int64 { return 7 })

	var b strings.Builder
	r.Each(func(name string, v int64) { fmt.Fprintf(&b, "%s %d\n", name, v) })
	want := "drops 0\nframes 42\nlag 7\n"
	if b.String() != want {
		t.Fatalf("Each = %q, want %q", b.String(), want)
	}
}

func TestRegistryGaugeShadowsCounter(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(1)
	r.Gauge("x", func() int64 { return 99 })
	seen := map[string]int64{}
	count := 0
	r.Each(func(name string, v int64) { seen[name] = v; count++ })
	if count != 1 || seen["x"] != 99 {
		t.Fatalf("Each = %v (count %d), want x=99 once", seen, count)
	}
}

// The gauge-shadows-counter rule holds in the exposition too: the shared
// name appears once, typed gauge, with the gauge value.
func TestRegistryPrometheusShadowsCounter(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(1)
	r.Gauge("x", func() int64 { return 99 })
	var b strings.Builder
	if _, err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE x gauge\nx 99\n"; b.String() != want {
		t.Fatalf("exposition = %q, want %q", b.String(), want)
	}
}

func TestRegistryUnregister(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(5)
	r.Gauge("b", func() int64 { return 1 })
	r.Counter("shadowed").Add(2)
	r.Gauge("shadowed", func() int64 { return 3 })

	r.Unregister("a")
	r.Unregister("shadowed") // removes both registrations at once
	r.Unregister("never-existed")

	seen := map[string]int64{}
	r.Each(func(name string, v int64) { seen[name] = v })
	if len(seen) != 1 || seen["b"] != 1 {
		t.Fatalf("after Unregister, Each = %v, want only b=1", seen)
	}
	// re-creating a removed counter starts from zero
	if got := r.Counter("a").Value(); got != 0 {
		t.Fatalf("recreated counter = %d, want 0", got)
	}
}

func TestRegistryReset(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(5)
	r.Gauge("b", func() int64 { return 1 })
	r.Reset()
	count := 0
	r.Each(func(string, int64) { count++ })
	if count != 0 {
		t.Fatalf("Reset left %d metrics registered", count)
	}
	var b strings.Builder
	if _, err := r.WritePrometheus(&b); err != nil || b.String() != "" {
		t.Fatalf("exposition after Reset = %q, err %v", b.String(), err)
	}
}

func TestRegistryServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if !strings.Contains(rec.Body.String(), "hits 3") {
		t.Fatalf("body = %q", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
}
