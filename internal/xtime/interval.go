package xtime

import (
	"fmt"
	"time"
)

// Interval is the closed time interval [From, To]: it contains every time
// point between and including its endpoints (§2 of the paper). The
// degenerate interval [t, t] contains exactly one point and models events.
type Interval struct {
	From, To DateTime
}

// NewInterval builds [from, to].
func NewInterval(from, to DateTime) Interval { return Interval{From: from, To: to} }

// PointInterval is the shorthand [t] = [t, t].
func PointInterval(t DateTime) Interval { return Interval{From: t, To: t} }

// Lifetime is the default lifespan [start, now] carried by elements with no
// temporal annotation of their own.
func Lifetime() Interval { return Interval{From: Start(), To: Now()} }

// ParseInterval parses "[t1,t2]" or "[t]" where each t is an XCQL time
// literal; the surrounding brackets are optional.
func ParseInterval(s string) (Interval, error) {
	str := s
	if len(str) >= 2 && str[0] == '[' && str[len(str)-1] == ']' {
		str = str[1 : len(str)-1]
	}
	parts := splitTop(str)
	switch len(parts) {
	case 1:
		t, err := Parse(parts[0])
		if err != nil {
			return Interval{}, err
		}
		return PointInterval(t), nil
	case 2:
		from, err := Parse(parts[0])
		if err != nil {
			return Interval{}, err
		}
		to, err := Parse(parts[1])
		if err != nil {
			return Interval{}, err
		}
		return NewInterval(from, to), nil
	default:
		return Interval{}, fmt.Errorf("xtime: malformed interval %q", s)
	}
}

func splitTop(s string) []string {
	var parts []string
	depth, start := 0, 0
	for i, r := range s {
		switch r {
		case '[', '(':
			depth++
		case ']', ')':
			depth--
		case ',':
			if depth == 0 {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, s[start:])
}

// IsPoint reports whether the interval is degenerate ([t, t]).
func (iv Interval) IsPoint(at time.Time) bool { return iv.From.Equal(iv.To, at) }

// Contains reports whether the time point t lies within [From, To].
func (iv Interval) Contains(t DateTime, at time.Time) bool {
	return iv.From.Compare(t, at) <= 0 && t.Compare(iv.To, at) <= 0
}

// Overlaps reports whether the two intervals share at least one point.
func (iv Interval) Overlaps(o Interval, at time.Time) bool {
	return iv.From.Compare(o.To, at) <= 0 && o.From.Compare(iv.To, at) <= 0
}

// Intersect returns the intersection of the two intervals and whether it is
// non-empty. This is the clipping operation of interval_projection (§6):
// the resulting lifespan is [max(from), min(to)]. An interval that ends
// before it begins — a window [b, a] with b after a — holds no point, so
// its intersection with anything is empty. The comparisons it decides by —
// whether each interval begins by its end, whether they overlap, and which
// endpoints bound the overlap — are reported to h.
func (iv Interval) Intersect(o Interval, at time.Time, h *Horizon) (Interval, bool) {
	h.LE(iv.From, iv.To)
	h.LE(o.From, o.To)
	h.LE(iv.From, o.To)
	h.LE(o.From, iv.To)
	if iv.From.Compare(iv.To, at) > 0 || o.From.Compare(o.To, at) > 0 || !iv.Overlaps(o, at) {
		return Interval{}, false
	}
	h.GE(iv.From, o.From)
	h.LE(iv.To, o.To)
	return Interval{
		From: iv.From.Max(o.From, at),
		To:   iv.To.Min(o.To, at),
	}, true
}

// Cover returns the minimum interval covering both inputs. This is how a
// parent's lifespan is derived from its children (§2).
func (iv Interval) Cover(o Interval, at time.Time) Interval {
	return Interval{
		From: iv.From.Min(o.From, at),
		To:   iv.To.Max(o.To, at),
	}
}

// CoverAll returns the minimum interval covering every input, or ok=false
// for an empty input. Used to derive a parent lifespan from children. The
// endpoint comparisons the cover is chosen by are reported to h.
func CoverAll(ivs []Interval, at time.Time, h *Horizon) (Interval, bool) {
	if len(ivs) == 0 {
		return Interval{}, false
	}
	acc := ivs[0]
	for _, iv := range ivs[1:] {
		h.ObserveIntervals(acc, iv)
		acc = acc.Cover(iv, at)
	}
	return acc, true
}

// Allen's interval relations (§2 defines "a before b" as a.t2 < b.t3; the
// rest follow the standard algebra).

// Before reports iv ends strictly before o starts.
func (iv Interval) Before(o Interval, at time.Time) bool { return iv.To.Before(o.From, at) }

// After reports iv starts strictly after o ends.
func (iv Interval) After(o Interval, at time.Time) bool { return o.Before(iv, at) }

// Meets reports iv ends exactly where o starts.
func (iv Interval) Meets(o Interval, at time.Time) bool { return iv.To.Equal(o.From, at) }

// MetBy reports o meets iv.
func (iv Interval) MetBy(o Interval, at time.Time) bool { return o.Meets(iv, at) }

// During reports iv lies strictly inside o.
func (iv Interval) During(o Interval, at time.Time) bool {
	return o.From.Before(iv.From, at) && iv.To.Before(o.To, at)
}

// ContainsInterval reports o lies strictly inside iv.
func (iv Interval) ContainsInterval(o Interval, at time.Time) bool { return o.During(iv, at) }

// Covers reports iv contains o, boundaries allowed.
func (iv Interval) Covers(o Interval, at time.Time) bool {
	return iv.From.Compare(o.From, at) <= 0 && o.To.Compare(iv.To, at) <= 0
}

// Starts reports both intervals begin together and iv ends first.
func (iv Interval) Starts(o Interval, at time.Time) bool {
	return iv.From.Equal(o.From, at) && iv.To.Before(o.To, at)
}

// Finishes reports both intervals end together and iv begins last.
func (iv Interval) Finishes(o Interval, at time.Time) bool {
	return iv.To.Equal(o.To, at) && o.From.Before(iv.From, at)
}

// Equal reports both endpoints coincide.
func (iv Interval) Equal(o Interval, at time.Time) bool {
	return iv.From.Equal(o.From, at) && iv.To.Equal(o.To, at)
}

// Duration returns the span of the interval at the evaluation instant.
func (iv Interval) Duration(at time.Time) time.Duration {
	return iv.To.Resolve(at).Sub(iv.From.Resolve(at))
}

// String formats as "[from,to]" or "[t]" for point intervals.
func (iv Interval) String() string {
	if iv.From == iv.To {
		return "[" + iv.From.String() + "]"
	}
	return "[" + iv.From.String() + "," + iv.To.String() + "]"
}

// VersionInterval is the integer version window [From, To] used by the
// version projection e#[v1,v2]. Versions are numbered 1..last in validTime
// order; Last=true on an endpoint denotes the symbolic constant last.
type VersionInterval struct {
	From, To         int
	FromLast, ToLast bool
}

// VersionPoint is the shorthand #[v].
func VersionPoint(v int) VersionInterval { return VersionInterval{From: v, To: v} }

// LastVersion is the window #[last].
func LastVersion() VersionInterval {
	return VersionInterval{FromLast: true, ToLast: true}
}

// Bounds resolves the window against the actual number of versions,
// returning 1-based inclusive bounds (lo > hi means empty).
func (vi VersionInterval) Bounds(count int) (lo, hi int) {
	lo, hi = vi.From, vi.To
	if vi.FromLast {
		lo = count
	}
	if vi.ToLast {
		hi = count
	}
	if lo < 1 {
		lo = 1
	}
	if hi > count {
		hi = count
	}
	return lo, hi
}

// String formats as "#[v1,v2]" with "last" for symbolic endpoints.
func (vi VersionInterval) String() string {
	end := func(v int, last bool) string {
		if last {
			return "last"
		}
		return fmt.Sprintf("%d", v)
	}
	a, b := end(vi.From, vi.FromLast), end(vi.To, vi.ToLast)
	if a == b {
		return "#[" + a + "]"
	}
	return "#[" + a + "," + b + "]"
}
