package stream

import (
	"strings"
	"testing"

	"xcql/internal/obs"
)

// The metrics bridge must expose live server and client counters through
// one registry: the gauges read fresh Stats snapshots at exposition time.
func TestRegisterMetricsExposesLiveCounters(t *testing.T) {
	r := obs.NewRegistry()

	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.RegisterMetrics(r, "server")

	c := NewClient("sensors", sensorStructure(t))
	c.RegisterMetrics(r, "client")

	vals := func() map[string]int64 {
		out := map[string]int64{}
		r.Each(func(name string, v int64) { out[name] = v })
		return out
	}

	if got := vals(); got["server_published"] != 0 || got["client_received"] != 0 {
		t.Fatalf("fresh registry not zero: %v", got)
	}

	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "42"))
	f1 := rootFragment()
	f1.Seq = 1
	c.Apply(f1)
	f2 := eventFragment(1, "2003-01-02T00:00:00", "42")
	f2.Seq = 2
	c.Apply(f2)

	got := vals()
	if got["server_published"] != 2 {
		t.Errorf("server_published = %d, want 2", got["server_published"])
	}
	if got["client_received"] != 2 {
		t.Errorf("client_received = %d, want 2", got["client_received"])
	}
	if got["client_degraded"] != 0 {
		t.Errorf("client_degraded = %d, want 0", got["client_degraded"])
	}

	// a skipped sequence number degrades the client, visible as the 0/1 gauge
	f5 := eventFragment(2, "2003-01-03T00:00:00", "43")
	f5.Seq = 5
	c.Apply(f5)
	got = vals()
	if got["client_degraded"] != 1 {
		t.Errorf("client_degraded after gap = %d, want 1", got["client_degraded"])
	}
	if got["client_gaps"] == 0 {
		t.Errorf("client_gaps = 0 after a skipped sequence")
	}

	var b strings.Builder
	if _, err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"server_published 2", "server_latest_seq 2", "client_received 3"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

func TestFaultInjectorRegisterMetrics(t *testing.T) {
	r := obs.NewRegistry()
	fi := NewFaultInjector(FaultPlan{Seed: 1})
	fi.RegisterMetrics(r, "fault")
	found := false
	r.Each(func(name string, v int64) {
		if name == "fault_frames" {
			found = true
		}
	})
	if !found {
		t.Fatal("fault_frames gauge not registered")
	}
}

// The exposition of a server and a client is pinned line by line: every
// series name either registers, and every value but the wall-clock
// delivery latencies, for one scripted run — a root and two events (the
// second older than the first), a buffer-1 subscriber that drops, and a
// client that skips a sequence number.
func TestExpositionPinned(t *testing.T) {
	r := obs.NewRegistry()
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.RegisterMetrics(r, "server")
	c := NewClient("sensors", sensorStructure(t))
	c.RegisterMetrics(r, "client")

	feed := s.Subscribe(16, false)
	s.Subscribe(1, false) // never drained: holds the root, drops the rest
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "42"))
	s.Publish(eventFragment(2, "2003-01-01T12:00:00", "43"))
	for range 3 {
		c.Apply(<-feed.C())
	}
	skip := eventFragment(3, "2003-01-03T00:00:00", "44")
	skip.Seq = 5
	c.Apply(skip)

	var b strings.Builder
	if _, err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "# ") {
			continue
		}
		name, value, _ := strings.Cut(line, " ")
		if strings.HasPrefix(name, "client_delivery_") && name != "client_delivery_count" {
			value = "*" // wall-clock latency
		}
		got = append(got, name+" "+value)
	}
	want := []string{
		"client_degraded 1",
		"client_delivery_count 3",
		"client_delivery_max *",
		"client_delivery_p50 *",
		"client_delivery_p90 *",
		"client_delivery_p99 *",
		"client_delivery_sum *",
		"client_duplicates 0",
		"client_errors 0",
		"client_gaps 1",
		"client_lag 0",
		"client_last_seq 5",
		"client_lost 0",
		"client_missing 1",
		"client_received 4",
		"client_reconnect_outcome_degraded 0",
		"client_reconnect_outcome_replay 0",
		"client_reconnect_outcome_snapshot_bootstrap 0",
		"client_reconnects 0",
		"client_replayed 0",
		"client_watermark_ns 1041552000000000000",
		"server_bootstraps 0",
		"server_dropped 2",
		"server_latest_seq 3",
		"server_oldest_retained 1",
		"server_published 3",
		"server_queue_depth 1",
		"server_resume_floor 0",
		"server_retained 3",
		"server_storage_errors 0",
		"server_subscribers 2",
		"server_watermark_ns 1041465600000000000",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("exposition:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
