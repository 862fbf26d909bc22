package stream

import (
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"
)

// startFaultyServer wires a server to a TCP listener behind the given
// fault injector and returns the dial address.
func startFaultyServer(t *testing.T, s *Server, opts ServeOptions) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() { _ = ServeTCPOptions(s, ln, opts) }()
	return ln.Addr().String()
}

func testDialOptions(seed int64) DialOptions {
	return DialOptions{
		Reconnect:      true,
		InitialBackoff: 2 * time.Millisecond,
		MaxBackoff:     20 * time.Millisecond,
		Rand:           rand.New(rand.NewSource(seed)),
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestFaultScenarios runs a server+client pair through seeded fault
// schedules. The contract under test: whatever the transport does, the
// client either ends with a complete store (lossless recovery via
// healing and resume) or explicitly reports the gap — silent loss is the
// one forbidden outcome.
func TestFaultScenarios(t *testing.T) {
	const events = 40
	scenarios := []struct {
		name string
		plan FaultPlan
		// server tuning
		subBuffer    int
		historyLimit int
		// expectations
		wantLossless   bool // store must converge to every fragment
		wantGapEvents  bool // at least one gap detected along the way
		wantDuplicates bool
		wantReconnects bool
		wantDegraded   bool // must end degraded with an explicit reason
	}{
		{
			name:          "drop",
			plan:          FaultPlan{Seed: 11, DropProb: 0.25},
			wantLossless:  true, // dropped frames heal on the final resume
			wantGapEvents: true,
		},
		{
			name:          "corrupt",
			plan:          FaultPlan{Seed: 16, CorruptProb: 0.25},
			wantLossless:  true, // a garbled frame is a dropped frame: it heals
			wantGapEvents: true,
		},
		{
			name:           "duplicate",
			plan:           FaultPlan{Seed: 12, DupProb: 0.5},
			wantLossless:   true,
			wantDuplicates: true,
		},
		{
			name:          "reorder",
			plan:          FaultPlan{Seed: 13, ReorderProb: 0.5},
			wantLossless:  true, // late arrivals heal their own gaps
			wantGapEvents: true,
		},
		{
			name:           "reset-mid-frame",
			plan:           FaultPlan{Seed: 14, ResetEvery: 7},
			wantLossless:   true, // resume replays everything after the cut
			wantReconnects: true,
		},
		{
			name:           "everything-at-once",
			plan:           FaultPlan{Seed: 15, DropProb: 0.15, DupProb: 0.15, ReorderProb: 0.15, ResetEvery: 11},
			wantLossless:   true,
			wantGapEvents:  true,
			wantReconnects: true,
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			s := NewServer("sensors", sensorStructure(t))
			defer s.Close()
			if sc.historyLimit > 0 {
				s.SetHistoryLimit(sc.historyLimit)
			}
			fi := NewFaultInjector(sc.plan)
			addr := startFaultyServer(t, s, ServeOptions{Faults: fi, SubscriptionBuffer: sc.subBuffer})

			// the whole stream exists before the client registers, so the
			// fault schedule plays out over a deterministic frame sequence
			s.Publish(rootFragment())
			for i := 1; i <= events; i++ {
				s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
			}

			c, err := Dial(addr, testDialOptions(sc.plan.Seed))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			want := events + 1
			if sc.historyLimit > 0 {
				want = sc.historyLimit // only the tail is even retained
			}
			// let the replay (and any mid-replay resets) run its course;
			// scenarios with drops cannot complete before the final resume,
			// so this wait is best-effort
			waitFor(t, time.Second, func() bool { return c.Store().Len() >= want })
			// orderly shutdown: the eos triggers the client's final
			// catch-up pass for anything still outstanding
			s.Close()
			settled := waitFor(t, 5*time.Second, func() bool {
				if sc.wantLossless {
					return c.Store().Len() == want && c.Stats().Missing == 0
				}
				_, degraded := c.Degraded()
				return degraded
			})
			st := c.Stats()
			if !settled {
				t.Fatalf("never settled: store = %d/%d, stats = %+v, errs = %v",
					c.Store().Len(), want, st, c.Errs())
			}

			if sc.wantLossless {
				if c.Store().Len() != want {
					t.Fatalf("store = %d, want %d (stats %+v)", c.Store().Len(), want, st)
				}
				if st.Missing != 0 || st.Lost != 0 {
					t.Fatalf("lossless run left missing=%d lost=%d", st.Missing, st.Lost)
				}
			}
			if sc.wantGapEvents && st.Gaps == 0 {
				t.Fatalf("expected gap events, got none (injector: %v)", fi)
			}
			if sc.wantDuplicates {
				if fi.Stats().Duplicated == 0 {
					t.Fatal("injector never duplicated a frame")
				}
				if st.Duplicates == 0 {
					t.Fatal("client saw no duplicates")
				}
			}
			if sc.wantReconnects {
				if fi.Stats().Resets == 0 {
					t.Fatal("injector never reset the connection")
				}
				if st.Reconnects == 0 {
					t.Fatal("client never reconnected")
				}
			}
			if sc.wantDegraded {
				reason, ok := c.Degraded()
				if !ok {
					t.Fatalf("expected explicit degradation, stats = %+v", st)
				}
				if !strings.Contains(reason, "unrecoverable") {
					t.Fatalf("degradation reason %q does not name the cause", reason)
				}
				found := false
				for _, g := range c.Gaps() {
					if strings.Contains(g.Reason, "unrecoverable") {
						found = true
					}
				}
				if !found {
					t.Fatalf("no unrecoverable gap recorded: %v", c.Gaps())
				}
			}
			// the forbidden outcome: fewer fragments than expected with no
			// explanation on record
			if c.Store().Len() < want {
				if _, degraded := c.Degraded(); !degraded && st.Lag == 0 {
					t.Fatalf("silent loss: store = %d/%d, no degradation reported", c.Store().Len(), want)
				}
			}
		})
	}
}

// TestCorruptFramesAreCountedNotHoarded: a link that garbles frames for as
// long as it is up costs the client a counter and a bounded tail of
// errors, not one retained error per bad frame. Every frame the injector
// corrupted reached the client as something that is not XML; each must be
// counted once, and Errs must hold the most recent maxKeptErrs of them.
func TestCorruptFramesAreCountedNotHoarded(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	fi := NewFaultInjector(FaultPlan{Seed: 21, CorruptProb: 0.6})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi})

	const events = 4 * maxKeptErrs
	s.Publish(rootFragment())
	for i := 1; i <= events; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	// no reconnects: one pass over the link, so the injector's count and
	// the client's are over the same frames
	c, err := Dial(addr, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !waitFor(t, 5*time.Second, func() bool {
		st, inj := c.Stats(), fi.Stats()
		return inj.Frames == events+1 && st.Received+st.Errors == events+1
	}) {
		t.Fatalf("replay never finished: client %+v, injector %v", c.Stats(), fi)
	}
	st, inj := c.Stats(), fi.Stats()
	if inj.Corrupted <= maxKeptErrs {
		t.Fatalf("injector corrupted only %d frames; the bound was never reached", inj.Corrupted)
	}
	if st.Errors != inj.Corrupted {
		t.Fatalf("client counted %d bad frames, the link garbled %d", st.Errors, inj.Corrupted)
	}
	errs := c.Errs()
	if len(errs) != maxKeptErrs {
		t.Fatalf("Errs holds %d errors, want the last %d of %d", len(errs), maxKeptErrs, st.Errors)
	}
	for _, e := range errs {
		if !strings.Contains(e.Error(), "stray character data") {
			t.Fatalf("kept error is not a decode error: %v", e)
		}
	}
	if st.Gaps == 0 {
		t.Fatal("garbled frames left no sequence gap")
	}
	if reason, degraded := c.Degraded(); !degraded {
		t.Fatalf("fragments are missing and the client does not say so (%q)", reason)
	}
}

// TestSlowReaderBecomesGap: a subscriber whose TCP writer cannot keep up
// overflows its broker-side buffer; the dropped deliveries surface as
// sequence gaps at the client instead of silent corruption, and heal on
// the final resume.
func TestSlowReaderBecomesGap(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	// 1ms max injected latency per frame vs a publish burst: the
	// one-slot buffer must overflow
	fi := NewFaultInjector(FaultPlan{Seed: 17, MaxLatency: time.Millisecond})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi, SubscriptionBuffer: 1})

	s.Publish(rootFragment())
	c, err := Dial(addr, testDialOptions(17))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitFor(t, 2*time.Second, func() bool { return c.Store().Len() >= 1 })

	const events = 200
	for i := 1; i <= events; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	dropped := s.Stats().Dropped
	if dropped == 0 {
		t.Skip("burst did not overflow the buffer on this machine")
	}
	s.Close()
	if !waitFor(t, 10*time.Second, func() bool {
		st := c.Stats()
		return c.Store().Len() == events+1 && st.Missing == 0
	}) {
		t.Fatalf("did not heal: store = %d, stats = %+v", c.Store().Len(), c.Stats())
	}
	// the loss must have been visible somewhere: either as sequence gaps
	// (interleaved drops) or as a catch-up reconnect after the eos frame
	// revealed the client was behind (pure tail drop)
	if st := c.Stats(); st.Gaps == 0 && st.Reconnects == 0 {
		t.Fatalf("broker drops left no trace: server dropped %d, stats %+v", dropped, st)
	}
}
