// Package xtime implements the temporal value model of XCQL: ISO-8601
// dateTime values extended with the symbolic constants "start" (beginning
// of time) and "now" (current evaluation time), ISO-8601 durations, and
// closed time intervals with Allen's interval operators.
//
// The symbolic constants matter because lifespans of streamed data are
// routinely open on the right: the current version of a fragment has
// vtTo = now, where now advances while a continuous query runs. A DateTime
// therefore stays symbolic until it is compared or formatted, at which
// point the caller supplies the evaluation instant.
package xtime

import (
	"fmt"
	"strings"
	"time"
)

// Layout is the ISO-8601 extended format used on the wire
// (CCYY-MM-DDThh:mm:ss), per XML Schema Part 2.
const Layout = "2006-01-02T15:04:05"

// kind discriminates the three flavours of DateTime.
type kind uint8

const (
	kindAbs kind = iota
	kindStart
	kindNow
)

// DateTime is a point on the time line: an absolute instant, or one of the
// symbolic constants start / now.
//
// The zero value is the absolute instant time.Time{} (year 1), which for
// all practical purposes behaves like a very early time; prefer Start()
// when "beginning of time" is meant.
type DateTime struct {
	k     kind
	t     time.Time
	shift Duration // pending displacement for symbolic values (now-PT1H)
}

// Start returns the symbolic beginning of time.
func Start() DateTime { return DateTime{k: kindStart} }

// Now returns the symbolic current time. It is resolved against an
// evaluation instant by Resolve.
func Now() DateTime { return DateTime{k: kindNow} }

// At returns the absolute DateTime for t. Sub-second precision is kept
// internally but not serialized.
func At(t time.Time) DateTime { return DateTime{k: kindAbs, t: t} }

// Date is a convenience constructor for tests and examples.
func Date(year int, month time.Month, day, hour, min, sec int) DateTime {
	return At(time.Date(year, month, day, hour, min, sec, 0, time.UTC))
}

// Parse parses an XCQL time literal: "start", "now", an ISO-8601 dateTime
// (CCYY-MM-DDThh:mm:ss, optionally with fractional seconds or a zone), or
// a bare date (CCYY-MM-DD, interpreted as midnight).
func Parse(s string) (DateTime, error) {
	if d, ok := TryParse(s); ok {
		return d, nil
	}
	return DateTime{}, &parseError{strings.TrimSpace(s)}
}

// TryParse is Parse for a caller that only asks whether s is a time
// literal. Comparisons probe every string operand with it, so the reject
// path is hot and allocates nothing: a string that does not start
// CCYY-MM-DD followed by "T" or nothing is turned away on its bytes, before
// any layout is tried.
func TryParse(s string) (DateTime, bool) {
	s = strings.TrimSpace(s)
	switch s {
	case "start":
		return Start(), true
	case "now":
		return Now(), true
	}
	if dateShaped(s) {
		for _, layout := range layouts {
			if t, err := time.Parse(layout, s); err == nil {
				return At(t.UTC()), true
			}
		}
	}
	return DateTime{}, false
}

var layouts = [...]string{Layout, "2006-01-02T15:04:05.999999999", "2006-01-02T15:04:05Z07:00", "2006-01-02"}

// dateShaped reports whether s begins CCYY-MM-DD and then ends or goes on
// with "T" — what every layout TryParse tries requires of its input.
func dateShaped(s string) bool {
	if len(s) < 10 || (len(s) > 10 && s[10] != 'T') {
		return false
	}
	for i := 0; i < 10; i++ {
		if i == 4 || i == 7 {
			if s[i] != '-' {
				return false
			}
		} else if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// parseError defers formatting the message to the caller that wants it;
// most callers only test for nil.
type parseError struct{ input string }

func (e *parseError) Error() string {
	return fmt.Sprintf("xtime: cannot parse %q as dateTime", e.input)
}

// MustParse is Parse that panics on error; for literals in tests/examples.
func MustParse(s string) DateTime {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// IsNow reports whether d is the symbolic constant now.
func (d DateTime) IsNow() bool { return d.k == kindNow }

// IsStart reports whether d is the symbolic constant start.
func (d DateTime) IsStart() bool { return d.k == kindStart }

// IsAbsolute reports whether d is an absolute instant.
func (d DateTime) IsAbsolute() bool { return d.k == kindAbs }

// Time returns the underlying instant for an absolute DateTime. It panics
// for symbolic values; call Resolve first when the value may be symbolic.
func (d DateTime) Time() time.Time {
	if d.k != kindAbs {
		panic("xtime: Time() on symbolic DateTime; Resolve it first")
	}
	return d.t
}

// Resolve maps the symbolic constants onto the given evaluation instant:
// now becomes at, start becomes the minimum representable instant. An
// absolute value is returned unchanged.
func (d DateTime) Resolve(at time.Time) time.Time {
	var t time.Time
	switch d.k {
	case kindNow:
		t = at
	case kindStart:
		t = minTime
	default:
		t = d.t
	}
	if !d.shift.IsZero() {
		t = d.shift.AddTo(t)
	}
	return t
}

// minTime is the instant used for the symbolic "start". Any plausible data
// timestamp compares after it.
var minTime = time.Date(1, time.January, 1, 0, 0, 0, 0, time.UTC)

// Compare orders two DateTimes given the evaluation instant for now.
// It returns -1, 0 or +1.
func (d DateTime) Compare(o DateTime, at time.Time) int {
	a, b := d.Resolve(at), o.Resolve(at)
	switch {
	case a.Before(b):
		return -1
	case a.After(b):
		return 1
	default:
		return 0
	}
}

// Before reports d < o at the evaluation instant.
func (d DateTime) Before(o DateTime, at time.Time) bool { return d.Compare(o, at) < 0 }

// After reports d > o at the evaluation instant.
func (d DateTime) After(o DateTime, at time.Time) bool { return d.Compare(o, at) > 0 }

// Equal reports d == o at the evaluation instant. The symbolic now equals
// now and an absolute value equal to the instant.
func (d DateTime) Equal(o DateTime, at time.Time) bool { return d.Compare(o, at) == 0 }

// Min returns the earlier of d and o at the evaluation instant, preserving
// symbolic representation where possible (start wins immediately; now only
// resolves when compared against an absolute value).
func (d DateTime) Min(o DateTime, at time.Time) DateTime {
	if d.Compare(o, at) <= 0 {
		return d
	}
	return o
}

// Max returns the later of d and o at the evaluation instant.
func (d DateTime) Max(o DateTime, at time.Time) DateTime {
	if d.Compare(o, at) >= 0 {
		return d
	}
	return o
}

// Add shifts an absolute DateTime by the duration. Shifting the symbolic
// now or start yields a value that resolves then shifts (i.e. the shift is
// applied after resolution).
func (d DateTime) Add(dur Duration) DateTime {
	if d.k == kindAbs && d.shift.IsZero() {
		return At(dur.AddTo(d.t))
	}
	d.shift = d.shift.Plus(dur)
	return d
}

// Sub shifts backwards by the duration.
func (d DateTime) Sub(dur Duration) DateTime { return d.Add(dur.Negated()) }

// AppendTo appends String's spelling of d to b, without allocating for an
// absolute instant or an unshifted start or now: a caller comparing a
// spelling with one it holds spells into a buffer of its own.
func (d DateTime) AppendTo(b []byte) []byte {
	switch {
	case d.k == kindAbs:
		return d.t.AppendFormat(b, Layout)
	case !d.shift.IsZero():
		return append(b, d.String()...)
	case d.k == kindNow:
		return append(b, "now"...)
	}
	return append(b, "start"...)
}

// String formats the value: "start", "now", "now+P…"/"now-P…" for shifted
// symbolic values, or the ISO-8601 instant.
func (d DateTime) String() string {
	switch d.k {
	case kindStart:
		if !d.shift.IsZero() {
			return "start" + signedDuration(d.shift)
		}
		return "start"
	case kindNow:
		if !d.shift.IsZero() {
			return "now" + signedDuration(d.shift)
		}
		return "now"
	default:
		return d.t.Format(Layout)
	}
}

func signedDuration(dur Duration) string {
	if dur.Negative {
		p := dur
		p.Negative = false
		return "-" + p.String()
	}
	return "+" + dur.String()
}
