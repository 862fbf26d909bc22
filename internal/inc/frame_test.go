package inc

import (
	"errors"
	"strings"
	"testing"
	"time"

	"xcql/internal/budget"
	"xcql/internal/obs"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// TestFrameSurvivesBudgetTrips: an engine evaluates every unit in one
// re-armed frame, so a unit cut off half-way — by a limit the evaluator
// returns (steps) or one a hole-crossing walk can only panic with (bytes,
// during materialization) — must leave nothing in it: the evaluation after
// the trip comes out, item for item and counter for counter, as a fresh
// engine's over the same store does.
func TestFrameSurvivesBudgetTrips(t *testing.T) {
	const wholeAccounts = `for $a in stream("credit")//account return $a`
	for _, c := range []struct {
		name, src string
		starved   xcql.Limits
		limit     string
	}{
		{"steps, returned", fraudQuery, xcql.Limits{MaxSteps: 5}, budget.LimitSteps},
		{"bytes, panicked while materializing", wholeAccounts, xcql.Limits{MaxBytes: 200}, budget.LimitBytes},
	} {
		rt, cs := newCreditStream(t, 3)
		tripped := New(rt.MustCompile(c.src, xcql.QaCPlus))
		at := creditBase
		if _, _, err := tripped.Apply(nil, at, xcql.Limits{}, nil, nil); err != nil {
			t.Fatalf("%s: seeding: %v", c.name, err)
		}
		for i := range 9 {
			at = creditBase.Add(time.Duration(i+1) * time.Minute)
			announce, tx := cs.charge(i%3, 2000, at)
			if _, _, err := tripped.Apply(announce, at, xcql.Limits{}, nil, nil); err != nil {
				t.Fatalf("%s: charge %d, the re-announcement: %v", c.name, i, err)
			}
			_, _, err := tripped.Apply(tx, at, c.starved, &obs.EvalStats{}, nil)
			var re *budget.ResourceError
			if !errors.As(err, &re) || re.Limit != c.limit {
				t.Fatalf("%s: charge %d under %+v: %v, want a %s trip", c.name, i, c.starved, err, c.limit)
			}
			var got, want obs.EvalStats
			if _, _, err := tripped.Apply(nil, at, xcql.Limits{}, &got, nil); err != nil {
				t.Fatalf("%s: charge %d, the evaluation after the trip: %v", c.name, i, err)
			}
			fresh := New(rt.MustCompile(c.src, xcql.QaCPlus))
			if _, _, err := fresh.Apply(nil, at, xcql.Limits{}, &want, nil); err != nil {
				t.Fatal(err)
			}
			if a, b := snapshotSerials(tripped), snapshotSerials(fresh); a != b {
				t.Fatalf("%s: charge %d: after the trip\n%s\na fresh engine\n%s", c.name, i, a, b)
			}
			if got != want {
				t.Fatalf("%s: charge %d: the evaluation after the trip was charged\n%s\na fresh engine's\n%s", c.name, i, got.String(), want.String())
			}
			for j, u := range tripped.order {
				if !u.horizon.Equal(fresh.order[j].horizon) {
					t.Fatalf("%s: charge %d: unit %v horizon %s, a fresh engine's %s", c.name, i, u.key, u.horizon, fresh.order[j].horizon)
				}
			}
		}
	}
}

func snapshotSerials(e *Engine) string {
	return strings.Join(itemSerials(e.ItemsSnapshot()), "\n")
}

// itemSerials is ItemSerial over a sequence.
func itemSerials(seq xq.Sequence) []string {
	out := make([]string, len(seq))
	for i, it := range seq {
		out[i] = ItemSerial(it)
	}
	return out
}
