package stream

import (
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/registry"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// A standing query whose evaluation trips its budget must not wedge the
// delivering goroutine or kill the subscription: it emits a degraded
// result carrying the trip reason and keeps flowing. Limits are fixed at
// Register, so the pressure is lifted by registering the query anew with a
// larger budget; after the consumer clears the degradation of the starved
// registration, it keeps delivering, degraded by nothing but its budget.
func TestContinuousQueryDegradesOnBudgetTrip(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event return $e`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []registry.Result
	collect := func(r registry.Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	}
	r, starved := standing(t, q, ts("2003-06-01T00:00:00"), registry.Options{
		Limits:   xcql.Limits{MaxBytes: 32}, // far below one event's footprint
		OnResult: collect,
	})
	c.AttachRegistry(r)

	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "41"))

	mu.Lock()
	if len(results) == 0 {
		mu.Unlock()
		t.Fatal("no results emitted")
	}
	last := results[len(results)-1]
	mu.Unlock()
	if last.Degraded == "" || last.Err != nil {
		t.Fatalf("want degraded result under budget, got %+v", last)
	}
	if !strings.Contains(last.Degraded, "bytes") {
		t.Fatalf("degradation reason should name the tripped limit: %q", last.Degraded)
	}
	if len(last.Delta) != 0 {
		t.Fatalf("budget-killed evaluation should carry no items, got %d", len(last.Delta))
	}
	if reason, degraded := starved.Degraded(); !degraded || reason != last.Degraded {
		t.Fatalf("registration degraded = %v %q, want the delivered reason", degraded, reason)
	}

	// Lift the pressure: the same query under a larger budget heals.
	var healed registry.Result
	fed, err := r.Register(q, registry.Options{
		Limits:   xcql.Limits{MaxBytes: 1 << 20},
		OnResult: func(res registry.Result) { healed = res },
	})
	if err != nil {
		t.Fatal(err)
	}
	starved.ClearDegraded()
	r.Evaluate()
	if healed.Degraded != "" || healed.Err != nil {
		t.Fatalf("the registration under a lifted budget is degraded: %q (%v)", healed.Degraded, healed.Err)
	}
	if len(healed.Delta) != 1 || len(fed.ItemsSnapshot()) != 1 {
		t.Fatalf("want 1 item after recovery, got delta %d, standing %d", len(healed.Delta), len(fed.ItemsSnapshot()))
	}
	if _, degraded := starved.Degraded(); !degraded {
		t.Fatal("the starved registration tripped again, yet reads as healthy")
	}
}

// A per-evaluation deadline that has already expired is governed the
// same way: degraded result, goroutine alive, no error.
func TestContinuousQueryDegradesOnDeadline(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event return $e`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []registry.Result
	r, _ := standing(t, q, ts("2003-06-01T00:00:00"), registry.Options{
		Limits: xcql.Limits{Timeout: time.Nanosecond},
		OnResult: func(res registry.Result) {
			mu.Lock()
			results = append(results, res)
			mu.Unlock()
		},
	})

	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "41"))
	c.AttachRegistry(r)
	r.Evaluate()
	mu.Lock()
	defer mu.Unlock()
	if len(results) == 0 {
		t.Fatal("no results emitted")
	}
	last := results[len(results)-1]
	if last.Err != nil {
		t.Fatalf("governed timeout must not surface as error: %v", last.Err)
	}
	if !strings.Contains(last.Degraded, "timeout") {
		t.Fatalf("want timeout degradation, got %q", last.Degraded)
	}
}

// Admission-control rejections are also governed: an overloaded engine
// degrades the standing result instead of erroring the subscription.
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
	var results []registry.Result
	r, _ := standing(t, q, ts("2003-06-01T00:00:00"), registry.Options{OnResult: func(res registry.Result) {
		mu.Lock()
		results = append(results, res)
		mu.Unlock()
	}})
	c.Apply(rootFragment())

	r.Evaluate()
	mu.Lock()
	defer mu.Unlock()
	if len(results) == 0 {
		t.Fatal("no result emitted")
	}
	if err := results[len(results)-1].Err; err != nil {
		t.Fatalf("overload must not surface as error: %v", err)
	}
	if !strings.Contains(results[len(results)-1].Degraded, "overloaded") {
		t.Fatalf("want overload degradation, got %q", results[len(results)-1].Degraded)
	}
}
