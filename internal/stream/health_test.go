package stream

import (
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/obs"
	"xcql/internal/xcql"
)

// The server's event-time watermark only ever moves forward: publishing
// an older-than-seen validTime (late data) advances the sequence
// watermark but not the event-time one.
func TestServerWatermarkMonotone(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	if h := s.Health(); !h.WatermarkValidTime.IsZero() || h.WatermarkSeq != 0 {
		t.Fatalf("fresh server watermark = %+v", h)
	}
	s.Publish(eventFragment(1, "2003-01-05T00:00:00", "v"))
	wm := s.Health().WatermarkValidTime
	if !wm.Equal(ts("2003-01-05T00:00:00")) {
		t.Fatalf("watermark = %v", wm)
	}
	s.Publish(eventFragment(2, "2003-01-02T00:00:00", "v")) // older event time
	h := s.Health()
	if !h.WatermarkValidTime.Equal(wm) {
		t.Errorf("watermark moved backwards: %v -> %v", wm, h.WatermarkValidTime)
	}
	if h.WatermarkSeq != 2 {
		t.Errorf("seq watermark = %d, want 2", h.WatermarkSeq)
	}
}

// The client's watermark is likewise monotone: a reordered or replayed
// old fragment is applied to the store but never rewinds the progress
// claim.
func TestClientWatermarkMonotone(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	defer c.Close()
	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-05T00:00:00", "v"))
	wm := c.Health().WatermarkValidTime
	c.Apply(eventFragment(2, "2003-01-02T00:00:00", "v")) // late data
	if got := c.Health().WatermarkValidTime; !got.Equal(wm) {
		t.Errorf("watermark moved backwards: %v -> %v", wm, got)
	}
}

// Sequence lag is the distance from the server's advertised latest to
// the client's position; a replay that catches the client up must bring
// it (and the event-time watermark lag) back to zero.
func TestSeqLagHealsAfterReplay(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.Publish(rootFragment())
	for i := 1; i <= 5; i++ {
		s.Publish(eventFragment(i, fmt.Sprintf("2003-01-%02dT00:00:00", i+1), "v"))
	}
	c := NewClient("sensors", sensorStructure(t))
	defer c.Close()
	c.noteLatest(s.LatestSeq()) // what a registration handshake advertises

	hist := s.History()
	c.Apply(hist[0])
	c.Apply(hist[1])
	if got := c.Health().SeqLag; got != 4 {
		t.Fatalf("SeqLag = %d, want 4", got)
	}
	if lag := WatermarkLag(s, c); lag <= 0 {
		t.Fatalf("WatermarkLag = %v, want > 0", lag)
	}

	// resume: replay everything after the client's position
	sub := s.SubscribeFrom(16, c.LastSeq())
	defer sub.Cancel()
	for sub.QueueDepth() > 0 {
		c.Apply(<-sub.C())
	}
	h := c.Health()
	if h.SeqLag != 0 {
		t.Errorf("SeqLag after replay = %d, want 0", h.SeqLag)
	}
	if h.Missing != 0 {
		t.Errorf("Missing after replay = %d, want 0", h.Missing)
	}
	if lag := WatermarkLag(s, c); lag != 0 {
		t.Errorf("WatermarkLag after replay = %v, want 0", lag)
	}
	if !h.WatermarkValidTime.Equal(s.Health().WatermarkValidTime) {
		t.Errorf("client watermark %v != server watermark %v",
			h.WatermarkValidTime, s.Health().WatermarkValidTime)
	}
	// in-process delivery is stamped, so the latency histogram filled up
	if c.DeliveryLatency().Count() != 6 {
		t.Errorf("delivery observations = %d, want 6", c.DeliveryLatency().Count())
	}
}

func TestWatermarkLagZeroWhenNothingSeen(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", sensorStructure(t))
	defer c.Close()
	if lag := WatermarkLag(s, c); lag != 0 {
		t.Fatalf("lag with no traffic = %v", lag)
	}
	// client ahead of server (replayed from elsewhere) also clamps to zero
	c.Apply(eventFragment(1, "2003-01-05T00:00:00", "v"))
	if lag := WatermarkLag(s, c); lag != 0 {
		t.Fatalf("lag with client ahead = %v", lag)
	}
}

// Queue depth is the delivered-but-unconsumed backlog; a depth pinned at
// capacity means the next publish drops, and the drop shows up in both
// the subscription's and the server's health.
func TestQueueDepthAndSubscriptionHealth(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	sub := s.Subscribe(2, false)
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "v"))

	if h := s.Health(); h.MaxQueueDepth != 2 || h.WatermarkSeq != 2 || h.Subscribers != 1 {
		t.Fatalf("server health = %+v", h)
	}
	if sh := sub.Health(); sh.QueueDepth != 2 || sh.QueueCap != 2 || sh.Dropped != 0 || sh.Closed {
		t.Fatalf("subscription health = %+v", sh)
	}

	s.Publish(eventFragment(2, "2003-01-03T00:00:00", "v")) // buffer full
	if sh := sub.Health(); sh.Dropped != 1 {
		t.Errorf("subscription dropped = %d, want 1", sh.Dropped)
	}
	if h := s.Health(); h.Dropped != 1 {
		t.Errorf("server dropped = %d, want 1", h.Dropped)
	}

	<-sub.C()
	if d := sub.QueueDepth(); d != 1 {
		t.Errorf("queue depth after one receive = %d, want 1", d)
	}
	sub.Cancel()
	if !sub.Health().Closed {
		t.Error("cancelled subscription not reported closed")
	}
}

// Under seeded transport chaos the client watermark must stay monotone
// at every arrival, and once the stream settles losslessly the client
// must have caught up: watermarks equal, nothing missing.
func TestWatermarkMonotoneUnderFaults(t *testing.T) {
	const events = 40
	plans := []struct {
		name string
		plan FaultPlan
	}{
		{"drop", FaultPlan{Seed: 21, DropProb: 0.25}},
		{"duplicate", FaultPlan{Seed: 22, DupProb: 0.5}},
		{"reorder", FaultPlan{Seed: 23, ReorderProb: 0.5}},
		{"everything", FaultPlan{Seed: 24, DropProb: 0.15, DupProb: 0.15, ReorderProb: 0.15, ResetEvery: 11}},
	}
	for _, sc := range plans {
		t.Run(sc.name, func(t *testing.T) {
			s := NewServer("sensors", sensorStructure(t))
			defer s.Close()
			fi := NewFaultInjector(sc.plan)
			addr := startFaultyServer(t, s, ServeOptions{Faults: fi})

			s.Publish(rootFragment())
			for i := 1; i <= events; i++ {
				s.Publish(eventFragment(i, fmt.Sprintf("2003-01-02T%02d:%02d:00", i/60, i%60), "v"))
			}

			c, err := Dial(addr, testDialOptions(sc.plan.Seed))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var mu sync.Mutex
			var prev time.Time
			violations := 0
			c.OnFragment(func(*fragment.Fragment) {
				wm := c.Health().WatermarkValidTime
				mu.Lock()
				if wm.Before(prev) {
					violations++
				}
				prev = wm
				mu.Unlock()
			})

			waitFor(t, time.Second, func() bool { return c.Store().Len() >= events+1 })
			s.Close() // eos triggers the final catch-up pass
			if !waitFor(t, 5*time.Second, func() bool {
				return c.Store().Len() == events+1 && c.Stats().Missing == 0
			}) {
				t.Fatalf("stream did not settle: store=%d stats=%+v", c.Store().Len(), c.Stats())
			}

			mu.Lock()
			defer mu.Unlock()
			if violations != 0 {
				t.Errorf("watermark moved backwards %d times", violations)
			}
			h := c.Health()
			if !h.WatermarkValidTime.Equal(s.Health().WatermarkValidTime) {
				t.Errorf("client watermark %v != server watermark %v",
					h.WatermarkValidTime, s.Health().WatermarkValidTime)
			}
			if h.SeqLag != 0 || h.Missing != 0 {
				t.Errorf("lag did not return to zero after replay: %+v", h)
			}
		})
	}
}

// The watermark, queue-depth and latency-quantile gauges all surface
// through the metrics registry — including the headline cq_latency_p99.
func TestWatermarkAndLatencyMetrics(t *testing.T) {
	r := obs.NewRegistry()
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.RegisterMetrics(r, "server")
	c := NewClient("sensors", sensorStructure(t))
	defer c.Close()
	c.RegisterMetrics(r, "client")

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`count(stream("sensors")//event)`, xcql.QaCPlus)
	cq := NewContinuousQuery(q, nil)
	clock := ts("2003-06-01T00:00:00")
	cq.Clock = func() time.Time { return clock }
	cq.RegisterMetrics(r, "cq")
	cq.Attach(c)

	sub := s.Subscribe(16, false)
	defer sub.Cancel()
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "42"))
	for sub.QueueDepth() > 0 {
		c.Apply(<-sub.C())
	}

	vals := map[string]int64{}
	r.Each(func(name string, v int64) { vals[name] = v })
	for _, name := range []string{
		"server_watermark_ns", "client_watermark_ns",
		"cq_latency_p50", "cq_latency_p90", "cq_latency_p99",
		"client_delivery_p99",
	} {
		if _, ok := vals[name]; !ok {
			t.Errorf("gauge %s not registered", name)
		}
	}
	want := ts("2003-01-02T00:00:00").UnixNano()
	if vals["server_watermark_ns"] != want || vals["client_watermark_ns"] != want {
		t.Errorf("watermark gauges = %d / %d, want %d",
			vals["server_watermark_ns"], vals["client_watermark_ns"], want)
	}
	if vals["cq_evals"] != 2 {
		t.Errorf("cq_evals = %d, want 2", vals["cq_evals"])
	}
	if vals["cq_latency_count"] != 2 || vals["cq_latency_p99"] <= 0 {
		t.Errorf("cq latency histogram not populated: count=%d p99=%d",
			vals["cq_latency_count"], vals["cq_latency_p99"])
	}
	if vals["client_delivery_count"] != 2 {
		t.Errorf("client_delivery_count = %d, want 2", vals["client_delivery_count"])
	}
	var b strings.Builder
	if _, err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cq_latency_p99 ") {
		t.Errorf("exposition missing cq_latency_p99:\n%s", b.String())
	}
}

// With no logger installed, the instrumentation on the hot path — the
// atomic logger load plus the histogram observe — must not allocate.
func TestDisabledObservabilityAllocatesNothing(t *testing.T) {
	var h logHolder
	hist := obs.NewHistogram()
	start := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		if l := h.log(); l != nil {
			panic("logger unexpectedly installed")
		}
		hist.Observe(time.Since(start))
	})
	if allocs != 0 {
		t.Fatalf("disabled observability path allocates %v per op, want 0", allocs)
	}
}

// BenchmarkStreamLogOverhead measures the publish→apply pipeline with
// logging disabled (the default) against a live slog handler, so the
// zero-cost-when-off claim stays checkable:
//
//	go test ./internal/stream -bench StreamLogOverhead -benchmem
func BenchmarkStreamLogOverhead(b *testing.B) {
	run := func(b *testing.B, logger *slog.Logger) {
		s := NewServer("sensors", sensorStructure(b))
		defer s.Close()
		c := NewClient("sensors", sensorStructure(b))
		defer c.Close()
		s.SetLogger(logger)
		c.SetLogger(logger)
		s.SetHistoryLimit(8)
		sub := s.Subscribe(1, false)
		defer sub.Cancel()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Publish(eventFragment(i+1, "2003-01-02T00:00:00", "v"))
			c.Apply(<-sub.C())
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, nil) })
	b.Run("enabled", func(b *testing.B) {
		h := slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelDebug})
		run(b, slog.New(h))
	})
}
