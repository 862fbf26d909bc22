package budget

import (
	"context"
	"errors"
	"testing"
	"time"
)

func tripLimit(t *testing.T, err error) string {
	t.Helper()
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want *ResourceError, got %T: %v", err, err)
	}
	return re.Limit
}

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	for i := 0; i < 1000; i++ {
		if err := b.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.AddItems(1 << 30); err != nil {
		t.Fatal(err)
	}
	if err := b.AddBytes(1 << 40); err != nil {
		t.Fatal(err)
	}
	// but the depth default still applies
	if err := b.CheckDepth(DefaultMaxDepth + 1); err == nil {
		t.Fatal("nil budget must still enforce the default depth limit")
	} else if got := tripLimit(t, err); got != LimitDepth {
		t.Fatalf("limit = %q, want %q", got, LimitDepth)
	}
	b.MustStep() // must not panic
}

func TestStepLimit(t *testing.T) {
	b := New(context.Background(), Limits{MaxSteps: 10})
	var err error
	for i := 0; i < 11 && err == nil; i++ {
		err = b.Step()
	}
	if got := tripLimit(t, err); got != LimitSteps {
		t.Fatalf("limit = %q, want %q", got, LimitSteps)
	}
}

func TestItemAndByteLimits(t *testing.T) {
	b := New(context.Background(), Limits{MaxItems: 5})
	if err := b.AddItems(3); err != nil {
		t.Fatal(err)
	}
	if got := tripLimit(t, b.AddItems(3)); got != LimitItems {
		t.Fatalf("limit = %q, want %q", got, LimitItems)
	}
	b = New(context.Background(), Limits{MaxBytes: 100})
	if err := b.AddBytes(60); err != nil {
		t.Fatal(err)
	}
	if got := tripLimit(t, b.AddBytes(60)); got != LimitBytes {
		t.Fatalf("limit = %q, want %q", got, LimitBytes)
	}
}

func TestDepthLimitCustom(t *testing.T) {
	b := New(context.Background(), Limits{MaxDepth: 3})
	if err := b.CheckDepth(3); err != nil {
		t.Fatal(err)
	}
	if got := tripLimit(t, b.CheckDepth(4)); got != LimitDepth {
		t.Fatalf("limit = %q, want %q", got, LimitDepth)
	}
}

func TestCancellationSurfacesWithinInterval(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	b := New(ctx, Limits{})
	cancel()
	var err error
	for i := 0; i < 2*checkInterval && err == nil; i++ {
		err = b.Step()
	}
	if got := tripLimit(t, err); got != LimitCanceled {
		t.Fatalf("limit = %q, want %q", got, LimitCanceled)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err %v should unwrap to context.Canceled", err)
	}
}

func TestTimeoutDeadline(t *testing.T) {
	b := New(context.Background(), Limits{Timeout: time.Nanosecond})
	time.Sleep(time.Millisecond)
	var err error
	for i := 0; i < 2*checkInterval && err == nil; i++ {
		err = b.Step()
	}
	if got := tripLimit(t, err); got != LimitTimeout {
		t.Fatalf("limit = %q, want %q", got, LimitTimeout)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err %v should unwrap to context.DeadlineExceeded", err)
	}
}

func TestCatchContainsResourcePanics(t *testing.T) {
	b := New(context.Background(), Limits{MaxSteps: 1})
	run := func() (err error) {
		defer Catch(&err)
		for {
			b.MustStep()
		}
	}
	if got := tripLimit(t, run()); got != LimitSteps {
		t.Fatalf("limit = %q, want %q", got, LimitSteps)
	}
}

func TestCatchRepanicsForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic should pass through Catch")
		}
	}()
	var err error
	defer Catch(&err)
	panic("not a resource error")
}

func TestUsedCounters(t *testing.T) {
	b := New(context.Background(), Limits{})
	_ = b.Step()
	_ = b.AddItems(7)
	_ = b.AddBytes(42)
	steps, items, bytes := b.Used()
	if steps != 1 || items != 7 || bytes != 42 {
		t.Fatalf("Used() = %d,%d,%d, want 1,7,42", steps, items, bytes)
	}
}

// TestChargeTripsAsStepsDo: charging steps at once trips where stepping
// one at a time does, with the same error, and charges items and bytes
// as AddItems and AddBytes do.
func TestChargeTripsAsStepsDo(t *testing.T) {
	stepped, charged := New(context.Background(), Limits{MaxSteps: 5}), New(context.Background(), Limits{MaxSteps: 5})
	var want error
	for i := 0; i < 7 && want == nil; i++ {
		want = stepped.Step()
	}
	if err := charged.Charge(3, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := charged.Charge(4, 0, 0); err == nil || err.Error() != want.Error() {
		t.Fatalf("charging 3 then 4 of 5 steps: %v, stepping: %v", err, want)
	}
	b := New(context.Background(), Limits{MaxItems: 10, MaxBytes: 100})
	if err := b.Charge(0, 10, 100); err != nil {
		t.Fatal(err)
	}
	if _, items, bytes := b.Used(); items != 10 || bytes != 100 {
		t.Fatalf("used %d items and %d bytes, want 10 and 100", items, bytes)
	}
	if err := b.Charge(0, 1, 0); tripLimit(t, err) != LimitItems {
		t.Fatalf("an item past the limit: %v", err)
	}
}
