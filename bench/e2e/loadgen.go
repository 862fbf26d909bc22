package main

import (
	"fmt"
	"time"
)

// clock is the time source of the load generator, so the self-tests can
// drive a schedule without sleeping.
type clock interface {
	Now() time.Time
	// SleepUntil returns at or after t.
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// spinWindow is how long before a due instant the generator stops
// sleeping and polls instead: kernel wake-ups overshoot by around a
// hundred microseconds, which the open-loop latency would otherwise
// absorb.
const spinWindow = 200 * time.Microsecond

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		preciseSleep(d)
	}
	for time.Now().Before(t) {
	}
}

// openLoopResult is the schedule accounting of one open-loop phase.
type openLoopResult struct {
	// Due is each op's scheduled instant; latency is counted from it, so
	// a stall in front of an op is charged to every op it delays.
	Due []time.Time
	// GeneratorLag is how long after the later of (due, previous send
	// returned) each send began: the lag the generator itself added.
	// Time spent blocked inside a send is the system's and is not lag.
	GeneratorLag []time.Duration
}

// openLoop sends n ops at a fixed rate on a schedule that never slows
// down: op i is due at start + i/rate and is sent as soon as both its due
// instant has come and the previous send has returned.
func openLoop(clk clock, n int, rate float64, send func(i int)) openLoopResult {
	res := openLoopResult{Due: make([]time.Time, n), GeneratorLag: make([]time.Duration, n)}
	interval := time.Duration(float64(time.Second) / rate)
	start := clk.Now()
	ready := start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		res.Due[i] = due
		clk.SleepUntil(due)
		began := clk.Now()
		from := due
		if ready.After(from) {
			from = ready
		}
		res.GeneratorLag[i] = began.Sub(from)
		send(i)
		ready = clk.Now()
	}
	return res
}

// maxLagShare is the share of the median latency the generator's own
// median lag may reach before the phase is too distorted to report.
const maxLagShare = 0.05

// checkLag says whether a paced phase is valid. Its latencies start at
// the due instants, so generator lag adds to them directly; a generator
// that is typically late has shifted the whole distribution. The lag's
// p99 is reported and not judged: with the generator inside the process
// under test, its worst percent is the collector's doing — a send that
// falls into a mark phase waits for a processor like everything else —
// and sits right at the 1% mark, so a rule on it is a coin toss.
func checkLag(lagP50, latencyP50 time.Duration) error {
	if latencyP50 <= 0 {
		return fmt.Errorf("loadgen: no latency samples to judge the schedule lag against")
	}
	if limit := time.Duration(float64(latencyP50) * maxLagShare); lagP50 > limit {
		return fmt.Errorf("loadgen: generator lag median %v exceeds %.0f%% of the latency median %v (limit %v): run invalid",
			lagP50, 100*maxLagShare, latencyP50, limit)
	}
	return nil
}

// window bounds the ops in flight: acquire blocks while limit ops are
// outstanding; release frees one slot and is a no-op when none is held.
type window chan struct{}

func newWindow(limit int) window { return make(window, limit) }

func (w window) acquire() { w <- struct{}{} }

func (w window) release() {
	select {
	case <-w:
	default:
	}
}
