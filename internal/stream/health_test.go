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
	"xcql/internal/registry"
	"xcql/internal/xcql"
)

// The server's event-time watermark only ever moves forward: publishing
// an older-than-seen validTime (late data) advances the sequence
// watermark but not the event-time one.
func TestServerWatermarkMonotone(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	if st := s.Stats(); !st.Watermark.IsZero() || st.LatestSeq != 0 {
		t.Fatalf("fresh server watermark = %+v", st)
	}
	s.Publish(eventFragment(1, "2003-01-05T00:00:00", "v"))
	wm := s.Stats().Watermark
	if !wm.Equal(ts("2003-01-05T00:00:00")) {
		t.Fatalf("watermark = %v", wm)
	}
	s.Publish(eventFragment(2, "2003-01-02T00:00:00", "v")) // older event time
	st := s.Stats()
	if !st.Watermark.Equal(wm) {
		t.Errorf("watermark moved backwards: %v -> %v", wm, st.Watermark)
	}
	if st.LatestSeq != 2 {
		t.Errorf("seq watermark = %d, want 2", st.LatestSeq)
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
	wm := c.Stats().Watermark
	c.Apply(eventFragment(2, "2003-01-02T00:00:00", "v")) // late data
	if got := c.Stats().Watermark; !got.Equal(wm) {
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
	if got := c.Stats().Lag; got != 4 {
		t.Fatalf("Lag = %d, want 4", got)
	}
	if lag := WatermarkLag(s, c); lag <= 0 {
		t.Fatalf("WatermarkLag = %v, want > 0", lag)
	}

	// resume: replay everything after the client's position
	sub := s.SubscribeFrom(16, c.LastSeq())
	defer sub.Cancel()
	for len(sub.C()) > 0 {
		c.Apply(<-sub.C())
	}
	st := c.Stats()
	if st.Lag != 0 {
		t.Errorf("Lag after replay = %d, want 0", st.Lag)
	}
	if st.Missing != 0 {
		t.Errorf("Missing after replay = %d, want 0", st.Missing)
	}
	if lag := WatermarkLag(s, c); lag != 0 {
		t.Errorf("WatermarkLag after replay = %v, want 0", lag)
	}
	if !st.Watermark.Equal(s.Stats().Watermark) {
		t.Errorf("client watermark %v != server watermark %v",
			st.Watermark, s.Stats().Watermark)
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
// capacity means the next publish drops, and the server counts the drop.
func TestQueueDepthAndDrops(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	sub := s.Subscribe(2, false)
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "v"))

	if st := s.Stats(); st.MaxQueueDepth != 2 || st.LatestSeq != 2 || st.Subscribers != 1 || st.Dropped != 0 {
		t.Fatalf("server stats = %+v", st)
	}

	s.Publish(eventFragment(2, "2003-01-03T00:00:00", "v")) // buffer full
	if st := s.Stats(); st.MaxQueueDepth != 2 || st.Dropped != 1 {
		t.Errorf("after a full-buffer publish: depth %d dropped %d, want 2 and 1", st.MaxQueueDepth, st.Dropped)
	}

	<-sub.C()
	if d := s.Stats().MaxQueueDepth; d != 1 {
		t.Errorf("queue depth after one receive = %d, want 1", d)
	}
	sub.Cancel()
	<-sub.C() // the delivery still buffered
	if _, ok := <-sub.C(); ok {
		t.Error("cancelled subscription's feed not closed")
	}
	if st := s.Stats(); st.Subscribers != 0 || st.MaxQueueDepth != 0 {
		t.Errorf("cancelled subscription still counted: %+v", st)
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
				wm := c.Stats().Watermark
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
			st := c.Stats()
			if !st.Watermark.Equal(s.Stats().Watermark) {
				t.Errorf("client watermark %v != server watermark %v",
					st.Watermark, s.Stats().Watermark)
			}
			if st.Lag != 0 || st.Missing != 0 {
				t.Errorf("lag did not return to zero after replay: %+v", st)
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
	queries, reg := standing(t, q, ts("2003-06-01T00:00:00"), registry.Options{OnResult: func(registry.Result) {}})
	reg.Latency().Register(r, "cq_latency")
	c.AttachRegistry(queries)

	sub := s.Subscribe(16, false)
	defer sub.Cancel()
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "42"))
	for len(sub.C()) > 0 {
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
	if n := reg.Stats().Evaluations; n != 2 {
		t.Errorf("%d evaluations, want 2", n)
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
