package main

import (
	"errors"
	"io"
	"testing"
)

// The checker must notice a delta that never arrived and a response that
// differs from the reference, and count both against the ops attempted.
func TestCheckerCountsADroppedDeltaAndAWrongResponse(t *testing.T) {
	c := newChecker()

	// ten events, two subscribers; the second never saw the last delta
	c.streamingPhase("paced", 10, []delivery{{completed: 10}, {completed: 9}}, transportFaults{})
	if c.attempted != 10 || c.failed != 1 || c.reasons["delta-missing"] != 1 {
		t.Fatalf("dropped delta: attempted=%d failed=%d reasons=%v", c.attempted, c.failed, c.reasons)
	}

	ref := []string{"<price>1</price>", "<price>2</price>"}
	c.response("QD.qacp", 200, []string{"<price>1</price>", "<price>2</price>"}, ref)
	if c.failed != 1 {
		t.Fatalf("a matching response was counted as failed: %v", c.reasons)
	}
	c.response("QD.qacp", 200, []string{"<price>1</price>", "<price>3</price>"}, ref)
	c.response("QD.qacpp", 200, ref[:1], ref)
	c.response("Q1.qacp", 503, nil, ref)
	if c.attempted != 14 || c.failed != 4 {
		t.Fatalf("attempted=%d failed=%d, want 14 and 4", c.attempted, c.failed)
	}
	if c.reasons["response-mismatch"] != 2 || c.reasons["http-status"] != 1 {
		t.Errorf("reasons = %v, want 2 response mismatches and 1 bad status", c.reasons)
	}
	if c.correct() {
		t.Error("a run with failures reports itself correct")
	}
	if got, want := c.failedShare(), 4.0/14; got != want {
		t.Errorf("failed share = %v, want %v", got, want)
	}
}

func TestCheckerCountsDegradedDeliveriesAndTransportFaults(t *testing.T) {
	c := newChecker()
	c.streamingPhase("saturate", 100, []delivery{{completed: 100, degraded: 2, errored: 1}},
		transportFaults{backpressureDrops: 3, clientGaps: 1})
	if c.failed != 7 {
		t.Errorf("failed = %d, want 2 degraded + 1 errored + 4 transport faults", c.failed)
	}
	clean := newChecker()
	clean.streamingPhase("saturate", 100, []delivery{{completed: 100}, {completed: 100}}, transportFaults{})
	if !clean.correct() || clean.attempted != 100 {
		t.Errorf("a clean phase: correct=%v attempted=%d", clean.correct(), clean.attempted)
	}
}

func TestStandingComparesItemsNotTheirOrder(t *testing.T) {
	c := newChecker()
	c.standing("q", []string{"b", "a", "c"}, []string{"a", "b", "c"})
	if !c.correct() {
		t.Errorf("the same items in another order were rejected: %v", c.details)
	}
	c.standing("q", []string{"a", "b"}, []string{"a", "b", "c"})
	c.standing("q", []string{"a", "b", "d"}, []string{"a", "b", "c"})
	if c.failed != 2 || c.reasons["standing-mismatch"] != 2 {
		t.Errorf("failed=%d reasons=%v, want 2 standing mismatches", c.failed, c.reasons)
	}
}

// A run spoiled by the host alone may be repeated; one with a wrong output
// may not, and each kind of failure has an exit code of its own.
func TestFailureKinds(t *testing.T) {
	c := newChecker()
	if c.onlyHostFailures() {
		t.Error("a clean run counts as spoiled")
	}
	c.attempted = 10
	c.fail("delta-missing", "one")
	c.fail("goroutine-leak", "two")
	if !c.onlyHostFailures() {
		t.Error("missing deltas and a slow teardown are the host's to cause")
	}
	if got, want := c.exitCode(), exitFailed+1; got != want {
		t.Errorf("exit code %d, want %d", got, want)
	}
	c.fail("response-mismatch", "three")
	if c.onlyHostFailures() {
		t.Error("a wrong response must never be retried")
	}
	seen := map[int]bool{exitHarness: true}
	for _, r := range failureReasons {
		k := newChecker()
		k.fail(r, "x")
		if seen[k.exitCode()] {
			t.Errorf("exit code %d of %s is used twice", k.exitCode(), r)
		}
		seen[k.exitCode()] = true
	}
}

// withRetry repeats a run the host spoiled, once, and no other.
func TestWithRetry(t *testing.T) {
	failing := func(reason string) *report {
		rep := newReport(io.Discard)
		rep.check.attempted = 1
		if reason != "" {
			rep.check.fail(reason, "x")
		}
		return rep
	}
	cases := []struct {
		name      string
		first     *report
		firstErr  error
		wantCalls int
	}{
		{"clean", failing(""), nil, 1},
		{"harness error", nil, errors.New("timed out"), 2},
		{"transport", failing("transport"), nil, 2},
		{"wrong output", failing("standing-mismatch"), nil, 1},
	}
	for _, c := range cases {
		calls := 0
		rep, err := withRetry(func() (*report, error) {
			if calls++; calls == 1 {
				return c.first, c.firstErr
			}
			return failing(""), nil
		}, io.Discard)
		if calls != c.wantCalls {
			t.Errorf("%s: %d attempts, want %d", c.name, calls, c.wantCalls)
		}
		if c.wantCalls == 2 && (err != nil || !rep.check.correct()) {
			t.Errorf("%s: the second attempt's result does not stand", c.name)
		}
	}
}
