package stream

import (
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// A continuous query whose evaluation trips its budget must not wedge
// the delivering goroutine or kill the subscription: it emits a degraded
// result carrying the trip reason and keeps flowing. After the consumer
// clears the degradation (and with the pressure gone), results are
// healthy again.
func TestContinuousQueryDegradesOnBudgetTrip(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event return $e`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []Result
	cq := NewContinuousQuery(q, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	clock := ts("2003-06-01T00:00:00")
	cq.Clock = func() time.Time { return clock }
	cq.Limits = xcql.Limits{MaxBytes: 32} // far below one event's footprint
	cq.Attach(c)

	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "41"))

	mu.Lock()
	if len(results) == 0 {
		mu.Unlock()
		t.Fatal("no results emitted")
	}
	last := results[len(results)-1]
	mu.Unlock()
	if last.Degraded == "" {
		t.Fatalf("want degraded result under budget, got %+v", last)
	}
	if !strings.Contains(last.Degraded, "bytes") {
		t.Fatalf("degradation reason should name the tripped limit: %q", last.Degraded)
	}
	if len(last.Delta) != 0 {
		t.Fatalf("budget-killed evaluation should carry no items, got %d", len(last.Delta))
	}

	// Lift the pressure, re-arm, and confirm the same query heals.
	cq.Limits = xcql.Limits{MaxBytes: 1 << 20}
	cq.ClearDegraded()
	if err := cq.Evaluate(); err != nil {
		t.Fatalf("evaluate after recovery: %v", err)
	}
	mu.Lock()
	last = results[len(results)-1]
	mu.Unlock()
	if last.Degraded != "" {
		t.Fatalf("still degraded after recovery: %q", last.Degraded)
	}
	if len(last.Delta) != 1 || len(cq.ItemsSnapshot()) != 1 {
		t.Fatalf("want 1 item after recovery, got delta %d, standing %d", len(last.Delta), len(cq.ItemsSnapshot()))
	}
}

// A per-evaluation deadline that has already expired is governed the
// same way: degraded result, goroutine alive, error nil.
func TestContinuousQueryDegradesOnDeadline(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event return $e`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []Result
	cq := NewContinuousQuery(q, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	cq.Limits = xcql.Limits{Timeout: time.Nanosecond}

	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "41"))
	cq.Attach(c)
	if err := cq.Evaluate(); err != nil {
		t.Fatalf("governed timeout must not surface as error: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(results) == 0 {
		t.Fatal("no results emitted")
	}
	last := results[len(results)-1]
	if !strings.Contains(last.Degraded, "timeout") {
		t.Fatalf("want timeout degradation, got %q", last.Degraded)
	}
}

// Admission-control rejections are also governed: an overloaded engine
// degrades the continuous result instead of erroring the subscription.
func TestContinuousQueryDegradesOnOverload(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	rt.SetMaxConcurrentEvals(1)
	q := rt.MustCompile(`count(stream("sensors")//event)`, xcql.QaCPlus)

	// Hold the only slot with a second query blocked in a user function.
	release := make(chan struct{})
	entered := make(chan struct{})
	rt.RegisterFunc("block", func(ctx *xq.Context, args []xq.Sequence) (xq.Sequence, error) {
		close(entered)
		<-release
		return nil, nil
	})
	blocker := rt.MustCompile(`block()`, xcql.QaCPlus)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = blocker.Eval(ts("2003-06-01T00:00:00"))
	}()
	<-entered
	defer func() { close(release); <-done }()

	var mu sync.Mutex
	var results []Result
	cq := NewContinuousQuery(q, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	c.Apply(rootFragment())

	if err := cq.Evaluate(); err != nil {
		t.Fatalf("overload must not surface as error: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(results) == 0 {
		t.Fatal("no result emitted")
	}
	if !strings.Contains(results[len(results)-1].Degraded, "overloaded") {
		t.Fatalf("want overload degradation, got %q", results[len(results)-1].Degraded)
	}
}
