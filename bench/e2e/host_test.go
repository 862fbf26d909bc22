package main

import (
	"testing"
	"time"
)

// The slowdown is the median sample over the nominal unit, per stretch of
// samples, and 1 where nothing was sampled.
func TestHostSlowdown(t *testing.T) {
	nominalMs := float64(refNominal) / 1e6
	h := hostProbe{units: []float64{nominalMs, nominalMs, 100 * nominalMs, nominalMs, nominalMs, 2 * nominalMs, 2 * nominalMs}}
	if got := h.slowdown(0); got != 1 {
		t.Errorf("slowdown over all samples %v, want 1: the median ignores the one stalled sample", got)
	}
	if got := h.slowdown(5); got != 2 {
		t.Errorf("slowdown from mark 5 %v, want 2", got)
	}
	if got := h.slowdown(h.mark()); got != 1 {
		t.Errorf("slowdown over no samples %v, want 1", got)
	}
}

// The reference work is deterministic and takes a time worth measuring.
func TestRefUnit(t *testing.T) {
	var h hostProbe
	h.sample(3)
	if h.mark() != 3 {
		t.Fatalf("%d samples, want 3", h.mark())
	}
	for _, ms := range h.units {
		if ms < 0.1 || ms > 1000 {
			t.Errorf("a unit of reference work took %v ms", ms)
		}
	}
}

// A wait is charged only for time its poller was running: a stall longer
// than the whole timeout between two polls does not expire it.
func TestWaitForSurvivesAStall(t *testing.T) {
	var stalled time.Duration
	waitClock = func() time.Time { return time.Now().Add(stalled) }
	defer func() { waitClock = time.Now }()
	polls := 0
	ok := waitFor(func() bool {
		if polls++; polls == 2 {
			stalled = drainTimeout + time.Second // what the next look at the clock finds
		}
		return polls == 4
	})
	if !ok {
		t.Error("waitFor gave up after a stall of the poller")
	}
}
