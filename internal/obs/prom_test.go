package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files with current output")

// TestWritePrometheusGolden pins the exposition format byte for byte:
// HELP/TYPE ordering, label escaping, name sanitization, gauge
// promotion. Run with -update-golden after an intentional change.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("server_published").Add(42)
	r.Counter(`client_received{stream="credit"}`).Add(7)
	r.Counter(`client_received{stream="or\ders"}`).Add(3) // backslash in label value
	r.Counter(`weird-name with spaces`).Add(1)            // sanitized to the grammar
	r.Gauge("queue_depth", func() int64 { return 5 })
	r.Help("server_published", "Fragments published by the server.")
	r.Help("client_received", "Fragments received,\nacross reconnects.") // newline escaped in HELP
	r.Help("queue_depth", "Current broadcast queue depth.")

	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()

	path := filepath.Join("testdata", "prometheus_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Fatalf("exposition drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestWritePrometheusGrammar(t *testing.T) {
	r := NewRegistry()
	r.Counter(`a{k="v"}`).Add(1)
	r.Counter("plain").Add(2)
	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimRight(sb.String(), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		for j, c := range name {
			ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (j > 0 && c >= '0' && c <= '9')
			if !ok {
				t.Fatalf("metric name %q violates the grammar (line %q)", name, line)
			}
		}
	}
}

func TestRegistryServeHTTPPrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits").Add(3)
	var sb strings.Builder
	if _, err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# TYPE hits counter") || !strings.Contains(out, "hits 3") {
		t.Fatalf("prometheus output missing TYPE/series:\n%s", out)
	}
}

func TestHistogramExemplar(t *testing.T) {
	var h Histogram
	h.ObserveExemplar(time.Millisecond, 0xaaa)
	h.ObserveExemplar(time.Millisecond, 0xbbb) // same bucket: most recent wins
	h.ObserveExemplar(time.Second, 0xccc)
	h.ObserveExemplar(time.Second, 0xccc)
	s := h.Snapshot()
	if got := s.ExemplarNear(0.99); got != 0xccc {
		t.Fatalf("p99 exemplar %x, want ccc", got)
	}
	if got := s.ExemplarNear(0.25); got != 0xbbb {
		t.Fatalf("p25 exemplar %x, want bbb (most recent in bucket)", got)
	}
	// zero trace id never overwrites an exemplar
	h.ObserveExemplar(time.Millisecond, 0)
	if got := h.Snapshot().ExemplarNear(0.25); got != 0xbbb {
		t.Fatalf("untraced observation clobbered exemplar: %x", got)
	}
	h.Reset()
	if got := h.Snapshot().ExemplarNear(0.5); got != 0 {
		t.Fatalf("exemplar survives Reset: %x", got)
	}
}

func TestCollectorSinkBounded(t *testing.T) {
	var c CollectorSink
	for i := 0; i < DefaultCollectorCapacity+7; i++ {
		c.Span("eval", strconv.Itoa(i), time.Now(), time.Millisecond)
	}
	spans := c.Spans()
	if len(spans) != DefaultCollectorCapacity {
		t.Fatalf("retained %d spans, want %d", len(spans), DefaultCollectorCapacity)
	}
	// the ring keeps the newest spans, oldest first
	if spans[0].Detail != "7" || spans[len(spans)-1].Detail != strconv.Itoa(DefaultCollectorCapacity+6) {
		t.Fatalf("retained window %s..%s", spans[0].Detail, spans[len(spans)-1].Detail)
	}
	if got := c.Dropped(); got != 7 {
		t.Fatalf("dropped %d, want 7", got)
	}
	c.Reset()
	if len(c.Spans()) != 0 || c.Dropped() != 0 {
		t.Fatalf("reset left spans=%d dropped=%d", len(c.Spans()), c.Dropped())
	}
}

func TestCollectorSinkDefaultCapacity(t *testing.T) {
	var c CollectorSink
	for i := 0; i < DefaultCollectorCapacity+10; i++ {
		c.Span("eval", "q", time.Now(), time.Millisecond)
	}
	if got := len(c.Spans()); got != DefaultCollectorCapacity {
		t.Fatalf("retained %d spans, want default cap %d", got, DefaultCollectorCapacity)
	}
	if got := c.Dropped(); got != 10 {
		t.Fatalf("dropped %d, want 10", got)
	}
}
