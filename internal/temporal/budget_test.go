package temporal

import (
	"context"
	"errors"
	"testing"

	"xcql/internal/budget"
)

func wantLimit(t *testing.T, err error, limit string) {
	t.Helper()
	var re *budget.ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("want *budget.ResourceError, got %T: %v", err, err)
	}
	if re.Limit != limit {
		t.Fatalf("want tripped limit %q, got %q (%v)", limit, re.Limit, re)
	}
}

// A budgeted TemporalizeWith must abort mid-reconstruction — returning the
// resource error, not panicking out — when the byte budget is smaller
// than the view it is building.
func TestTemporalizeBudgetAbortsOnBytes(t *testing.T) {
	st := creditStore(t)
	b := budget.New(context.Background(), budget.Limits{MaxBytes: 128})
	_, err := TemporalizeWith(st, evalAt, TemporalizeOptions{Budget: b})
	wantLimit(t, err, budget.LimitBytes)

	// The store is untouched: an unbudgeted reconstruction still works.
	if _, err := Temporalize(st, evalAt); err != nil {
		t.Fatalf("store unusable after budget abort: %v", err)
	}
}

func TestTemporalizeBudgetAbortsOnSteps(t *testing.T) {
	st := creditStore(t)
	b := budget.New(context.Background(), budget.Limits{MaxSteps: 3})
	_, err := TemporalizeWith(st, evalAt, TemporalizeOptions{Budget: b})
	wantLimit(t, err, budget.LimitSteps)
}

// A generous budget reconstructs the identical view.
func TestTemporalizeBudgetTransparent(t *testing.T) {
	st := creditStore(t)
	plain, err := Temporalize(st, evalAt)
	if err != nil {
		t.Fatal(err)
	}
	b := budget.New(context.Background(), budget.Limits{MaxBytes: 1 << 20, MaxSteps: 1 << 20, MaxItems: 1 << 20})
	budgeted, err := TemporalizeWith(st, evalAt, TemporalizeOptions{Budget: b})
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != budgeted.String() {
		t.Fatalf("budgeted reconstruction diverged:\n%s\nvs\n%s", plain, budgeted)
	}
	steps, _, bytes := b.Used()
	if steps == 0 || bytes == 0 {
		t.Fatalf("reconstruction was not metered: steps=%d bytes=%d", steps, bytes)
	}
}

// BudgetResolver meters hole expansion during projection and aborts by
// panicking with the resource error, which budget.Catch contains.
func TestBudgetResolverTripsDuringProjection(t *testing.T) {
	st := creditStore(t)
	view, err := Temporalize(st, evalAt)
	if err != nil {
		t.Fatal(err)
	}
	_ = view
	b := budget.New(context.Background(), budget.Limits{MaxBytes: 32})
	resolve := BudgetResolver(b, storeResolver(st))
	err = func() (err error) {
		defer budget.Catch(&err)
		resolve(1) // account filler: bigger than 32 bytes
		return nil
	}()
	wantLimit(t, err, budget.LimitBytes)
}
