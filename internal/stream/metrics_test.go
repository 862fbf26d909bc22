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
