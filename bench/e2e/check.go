package main

import (
	"fmt"
	"sort"
	"strings"

	"xcql"
)

// checker is the output check built into every run: ops are counted as
// attempted when issued and as failed when their output is missing,
// degraded or different from the reference. A run is correct only when
// nothing failed.
type checker struct {
	attempted int
	failed    int
	reasons   map[string]int
	// details keeps the first few failures verbatim for the report.
	details []string
}

func newChecker() *checker { return &checker{reasons: map[string]int{}} }

func (c *checker) fail(reason, detail string) { c.failN(reason, 1, detail) }

// failN counts n failures of one kind under a single detail line.
func (c *checker) failN(reason string, n int, detail string) {
	if n <= 0 {
		return
	}
	c.failed += n
	c.reasons[reason] += n
	if len(c.details) < 8 {
		c.details = append(c.details, reason+": "+detail)
	}
}

func (c *checker) correct() bool { return c.failed == 0 }

// failureReasons are the kinds of failed op, in exit-code order. The first
// hostReasons of them are what a stalled host can cause on a program that
// is working as it should: buffers overflow, connections are redialled,
// deltas arrive after the drain gave up, a teardown takes too long. The
// rest say that an output was wrong.
var failureReasons = []string{
	"transport", "delta-missing", "goroutine-leak",
	"degraded", "eval-error", "http-status", "response-mismatch", "standing-mismatch",
}

const hostReasons = 3

// exitCode is exitFailed plus the place of the first reason that counted
// a failure.
func (c *checker) exitCode() int {
	for i, r := range failureReasons {
		if c.reasons[r] > 0 {
			return exitFailed + i
		}
	}
	return exitFailed + len(failureReasons)
}

// onlyHostFailures reports whether ops failed and every one of them for a
// reason the host can cause.
func (c *checker) onlyHostFailures() bool {
	n := 0
	for _, r := range failureReasons[:hostReasons] {
		n += c.reasons[r]
	}
	return c.failed > 0 && n == c.failed
}

func (c *checker) failedShare() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.failed) / float64(c.attempted)
}

func (c *checker) summary() string {
	if c.failed == 0 {
		return fmt.Sprintf("%d ops attempted, 0 failed", c.attempted)
	}
	keys := make([]string, 0, len(c.reasons))
	for k := range c.reasons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c.reasons[k]))
	}
	return fmt.Sprintf("%d ops attempted, %d failed (%s)\n    %s",
		c.attempted, c.failed, strings.Join(parts, " "), strings.Join(c.details, "\n    "))
}

// delivery is what one subscriber observed for one streaming phase.
type delivery struct {
	// completed is the number of events whose delta arrived.
	completed int
	// degraded and errored count result frames carrying a Degraded reason
	// or an evaluation error.
	degraded int
	errored  int
}

// streamingPhase accounts one streaming phase: events were published and
// every subscriber should have received every event's delta clean.
func (c *checker) streamingPhase(phase string, events int, subs []delivery, transport transportFaults) {
	c.attempted += events
	for i, d := range subs {
		c.failN("delta-missing", events-d.completed, fmt.Sprintf(
			"%s: subscriber %d never received the deltas of events %d..%d", phase, i, d.completed, events-1))
		c.failN("degraded", d.degraded, fmt.Sprintf("%s: subscriber %d received degraded results", phase, i))
		c.failN("eval-error", d.errored, fmt.Sprintf("%s: subscriber %d received evaluation errors", phase, i))
	}
	c.failN("transport", int(transport.total()), fmt.Sprintf("%s: %s", phase, transport))
}

// transportFaults are the loss counters of the layers between publisher
// and registry; any of them non-zero means some op did not travel clean.
type transportFaults struct {
	serverDrops       int64
	clientGaps        int64
	clientReconnects  int64
	backpressureDrops int64
	reseeds           int64
	storageErrors     int64
}

func (t transportFaults) total() int64 {
	return t.serverDrops + t.clientGaps + t.clientReconnects + t.backpressureDrops + t.reseeds + t.storageErrors
}

func (t transportFaults) String() string {
	return fmt.Sprintf("server drops=%d client gaps=%d reconnects=%d backpressure drops=%d reseeds=%d storage errors=%d",
		t.serverDrops, t.clientGaps, t.clientReconnects, t.backpressureDrops, t.reseeds, t.storageErrors)
}

// standing compares a registration's final standing result with the
// reference evaluation over the same store, as multisets: on a stream
// whose parents are re-announced, the index-driven plans (QaC+, QaC++)
// return descendant-step results in filler order and CaQ in document
// order, so the two agree on the items and not on their sequence.
func (c *checker) standing(name string, got, want []string) {
	g, w := append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if d := diffItems(g, w); d != "" {
		c.fail("standing-mismatch", name+" (sorted): "+d)
	}
}

// response accounts one ad-hoc request.
func (c *checker) response(class string, status int, got, want []string) {
	c.attempted++
	if status != 200 {
		c.fail("http-status", fmt.Sprintf("%s: status %d", class, status))
		return
	}
	if d := diffItems(got, want); d != "" {
		c.fail("response-mismatch", class+": "+d)
	}
}

// diffItems describes the first difference between two serialized
// result sequences, or returns "" when they are equal.
func diffItems(got, want []string) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d items, reference has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("item %d is %.80q, reference has %.80q", i, got[i], want[i])
		}
	}
	return ""
}

// itemStrings serializes a result the way the registry's JSON codec puts
// items on the wire (nodes as XML, atomics as their string value), so a
// sequence evaluated here compares byte for byte with one received.
func itemStrings(seq xcql.Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		if n, ok := it.(*xcql.Node); ok {
			out[i] = n.String()
		} else {
			out[i] = xcql.StringValue(it)
		}
	}
	return out
}
