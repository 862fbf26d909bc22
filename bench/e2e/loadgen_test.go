package main

import (
	"testing"
	"time"
)

// fakeClock is a schedule's time source under test: sleeping advances
// it, and a send may advance it further to model a stall.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time { return c.now }

func (c *fakeClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t
	}
}

// When the publisher stalls, the ops behind it stay due on the original
// schedule: their lateness is charged to their latency, and none of it
// is blamed on the generator, which was blocked inside the system.
func TestOpenLoopKeepsItsScheduleThroughAStall(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	const interval = 10 * time.Millisecond
	began := make([]time.Time, 10)
	res := openLoop(clk, 10, 100, func(i int) {
		began[i] = clk.now
		if i == 3 {
			clk.now = clk.now.Add(45 * time.Millisecond) // the system blocks the sender
		} else {
			clk.now = clk.now.Add(time.Millisecond)
		}
	})
	for i := range res.Due {
		if want := start.Add(time.Duration(i) * interval); !res.Due[i].Equal(want) {
			t.Errorf("op %d due at %v, want %v: the schedule moved", i, res.Due[i].Sub(start), want.Sub(start))
		}
		if began[i].Before(res.Due[i]) {
			t.Errorf("op %d was sent %v before it was due", i, res.Due[i].Sub(began[i]))
		}
		if res.GeneratorLag[i] != 0 {
			t.Errorf("op %d: generator lag %v, want 0", i, res.GeneratorLag[i])
		}
	}
	// op 3 began at 30ms and returned at 75ms: ops 4..7 were due at
	// 40..70ms and all go out late, back to back
	for i, wantLate := range map[int]time.Duration{
		4: 35 * time.Millisecond, 5: 26 * time.Millisecond, 6: 17 * time.Millisecond, 7: 8 * time.Millisecond, 8: 0,
	} {
		if late := began[i].Sub(res.Due[i]); late != wantLate {
			t.Errorf("op %d went out %v after it was due, want %v", i, late, wantLate)
		}
	}
}

// lateClock wakes up late from every sleep, like a starved generator.
type lateClock struct {
	fakeClock
	overshoot time.Duration
}

func (c *lateClock) SleepUntil(t time.Time) {
	if t.After(c.now) {
		c.now = t.Add(c.overshoot)
	}
}

func TestGeneratorLagInvalidatesARun(t *testing.T) {
	clk := &lateClock{fakeClock: fakeClock{now: time.Unix(1000, 0)}, overshoot: 300 * time.Microsecond}
	res := openLoop(clk, 200, 100, func(int) { clk.now = clk.now.Add(time.Millisecond) })
	lag := summarize(durationsToUs(res.GeneratorLag))
	if lag.Median != 300 {
		t.Fatalf("generator lag median = %v µs, want 300", lag.Median)
	}
	// against a 2 ms median latency, 300 µs of lag is 15%: invalid
	if err := checkLag(usDuration(lag.Median), 2*time.Millisecond); err == nil {
		t.Error("a lag of 15% of the median latency was accepted")
	}
	// against a 20 ms median it is 1.5%: valid
	if err := checkLag(usDuration(lag.Median), 20*time.Millisecond); err != nil {
		t.Errorf("a lag of 1.5%% of the median latency was rejected: %v", err)
	}
	if err := checkLag(0, 0); err == nil {
		t.Error("a phase without latency samples was accepted")
	}
}

func TestWindow(t *testing.T) {
	w := newWindow(2)
	w.release() // releasing an empty window is a no-op
	w.acquire()
	w.acquire()
	acquired := make(chan struct{})
	go func() {
		w.acquire()
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("a third acquire went through a window of two")
	case <-time.After(20 * time.Millisecond):
	}
	w.release()
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("release did not admit the waiting acquire")
	}
}
