package xtime

import "time"

// Horizon records, over one evaluation at the instant At, how long the
// evaluation's result stays valid while the store does not change: the
// earliest later instant at which some comparison it made against the
// moving "now" comes out differently. An evaluation reports every such
// comparison with Observe; what it cannot bound it reports with Collapse.
// A continuous query then re-runs the evaluation only when the clock
// reaches Next, not on every tick.
//
// The methods are nil-safe: an evaluation nobody schedules by passes nil
// and pays a pointer test per comparison.
type Horizon struct {
	at   time.Time
	next time.Time
	set  bool
}

// Reset starts tracking an evaluation at the instant at, forgetting
// everything a previous one observed: one Horizon serves an owner that runs
// one evaluation after another.
func (h *Horizon) Reset(at time.Time) { *h = Horizon{at: at} }

// Next returns the earliest instant after At at which the observed
// comparisons can change; ok is false when none ever does. Next == At
// means the result is volatile: valid at At only.
func (h *Horizon) Next() (next time.Time, ok bool) {
	if h == nil {
		return time.Time{}, false
	}
	return h.next, h.set
}

// Collapse marks the result valid at At only: something read the clock in
// a way no crossing instant describes.
func (h *Horizon) Collapse() {
	if h != nil {
		h.next, h.set = h.at, true
	}
}

// Until reports that the result can change at t: what a part of the
// evaluation observed when it ran before, for a caller that memoized that
// part instead of running it again.
func (h *Horizon) Until(t time.Time) {
	if h != nil {
		h.before(t)
	}
}

func (h *Horizon) before(t time.Time) {
	if !h.set || t.Before(h.next) {
		h.next, h.set = t, true
	}
}

// Observe reports that the evaluation's result depends on how a and b
// compare at At: before, equal or after. LE and GE are the same for a
// result that depends only on whether a <= b, or a >= b, holds: the one
// comparison that is equal at At and unequal ever after — a lifespan
// ending at the very instant it is evaluated — keeps both.
//
// Two fixed instants, and two values moving with now at the same pace,
// compare the same for ever. A value now+d meets a fixed instant e at
// e-d: it is earlier before, equal exactly there, and later from the next
// instant on. A shift with year or month components, or day components
// outside UTC, does not move at the clock's pace, and collapses.
func (h *Horizon) Observe(a, b DateTime) { h.observe(a, b, true, true) }

// LE reports that the result depends on whether a <= b holds at At.
func (h *Horizon) LE(a, b DateTime) { h.observe(a, b, false, true) }

// GE reports that the result depends on whether a >= b holds at At.
func (h *Horizon) GE(a, b DateTime) { h.observe(a, b, true, false) }

// observe files the instants at which the comparison of a with b stops
// being what it is at At: a >= b changes where a moving a reaches b or a
// moving b passes a, a <= b where a moving a passes b or a moving b
// reaches a.
func (h *Horizon) observe(a, b DateTime, ge, le bool) {
	if h == nil || (a.k != kindNow && b.k != kindNow) {
		return
	}
	if a.k == kindNow && b.k == kindNow {
		if a.shift != b.shift && !(h.fixed(a.shift) && h.fixed(b.shift)) {
			h.Collapse()
		}
		return
	}
	moving, still := a, b
	reaching, passing := ge, le
	if b.k == kindNow {
		moving, still = b, a
		reaching, passing = le, ge
	}
	if !h.fixed(moving.shift) {
		h.Collapse()
		return
	}
	// moving resolves to at + (moving(At) - At) at every instant at
	meet := still.Resolve(h.at).Add(h.at.Sub(moving.Resolve(h.at)))
	if reaching && h.at.Before(meet) {
		h.before(meet)
	}
	if passing && !h.at.After(meet) {
		h.before(meet.Add(time.Nanosecond))
	}
}

// ObserveIntervals reports every endpoint comparison between a and b:
// what Cover and the Allen relations decide by.
func (h *Horizon) ObserveIntervals(a, b Interval) {
	if h == nil {
		return
	}
	h.Observe(a.From, b.From)
	h.Observe(a.From, b.To)
	h.Observe(a.To, b.From)
	h.Observe(a.To, b.To)
}

// fixed reports that applying d moves an instant by the same amount
// whatever the instant: no calendar months or years, and days only where
// every day has 24 hours.
func (h *Horizon) fixed(d Duration) bool {
	return d.Years == 0 && d.Months == 0 && (d.Days == 0 || h.at.Location() == time.UTC)
}
