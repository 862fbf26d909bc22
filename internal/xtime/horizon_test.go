package xtime

import (
	"testing"
	"time"
)

// TestHorizonObserve: for every pairing of fixed and now-relative values
// around the evaluation instant, and for the three-way comparison and the
// two predicates a <= b and a >= b alike, what was observed keeps its
// value at every instant before Next and has another one at Next; a pair
// that reports no Next keeps it for ever (sampled far ahead).
func TestHorizonObserve(t *testing.T) {
	at := time.Date(2004, 6, 1, 12, 0, 0, 0, time.UTC)
	var values []DateTime
	for _, d := range []string{"PT0S", "PT1H", "-PT1H", "P1D", "-PT90M"} {
		values = append(values, Now().Add(MustParseDuration(d)), At(MustParseDuration(d).AddTo(at)))
	}
	values = append(values, Start())
	observers := []struct {
		name    string
		observe func(h *Horizon, a, b DateTime)
		value   func(a, b DateTime, at time.Time) int
	}{
		{"compare", (*Horizon).Observe, func(a, b DateTime, at time.Time) int { return a.Compare(b, at) }},
		{"<=", (*Horizon).LE, func(a, b DateTime, at time.Time) int { return max(a.Compare(b, at), 0) }},
		{">=", (*Horizon).GE, func(a, b DateTime, at time.Time) int { return min(a.Compare(b, at), 0) }},
	}
	for _, o := range observers {
		for _, a := range values {
			for _, b := range values {
				h := new(Horizon)
				h.Reset(at)
				o.observe(h, a, b)
				was := o.value(a, b, at)
				next, ok := h.Next()
				if !ok {
					for _, later := range []time.Duration{time.Nanosecond, time.Hour, 1000 * time.Hour} {
						if got := o.value(a, b, at.Add(later)); got != was {
							t.Errorf("%s %s %s: no horizon, but the value moves from %d to %d after %s", a, o.name, b, was, got, later)
						}
					}
					continue
				}
				if !next.After(at) {
					t.Errorf("%s %s %s: horizon %s is not after the instant", a, o.name, b, next)
					continue
				}
				span := next.Sub(at)
				for _, d := range []time.Duration{time.Nanosecond, span / 2, span - time.Nanosecond} {
					if d > 0 && d < span && o.value(a, b, at.Add(d)) != was {
						t.Errorf("%s %s %s: the value moves %s after the instant, before the horizon %s", a, o.name, b, d, next)
					}
				}
				if got := o.value(a, b, next); got == was {
					t.Errorf("%s %s %s: horizon %s reported, but the value is still %d there", a, o.name, b, next, was)
				}
			}
		}
	}
}

// TestHorizonCollapse: what does not move at the clock's pace is valid at
// the instant only, and a nil horizon accepts every report.
func TestHorizonCollapse(t *testing.T) {
	at := time.Date(2004, 3, 31, 0, 0, 0, 0, time.UTC)
	h := new(Horizon)
	h.Reset(at)
	h.Observe(Now().Sub(MustParseDuration("P1M")), At(at.Add(-24*time.Hour)))
	if next, ok := h.Next(); !ok || !next.Equal(at) {
		t.Errorf("month-shifted now: horizon %v %v, want the instant itself", next, ok)
	}
	h.Reset(at)
	h.Observe(Now(), At(at.Add(time.Hour)))
	h.Observe(Now(), At(at.Add(time.Minute)))
	if next, _ := h.Next(); !next.Equal(at.Add(time.Minute)) {
		t.Errorf("two crossings: horizon %s, want the earlier one", next)
	}
	var none *Horizon
	none.Observe(Now(), At(at))
	none.ObserveIntervals(Lifetime(), Lifetime())
	none.Collapse()
	if _, ok := none.Next(); ok {
		t.Error("nil horizon reports a crossing")
	}
}
