package xtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// lawInterval is a valid interval at the evaluation instant eval, for
// testing/quick: each endpoint is an absolute instant within a day of
// eval, the symbolic now, now shifted by up to a day either way, or start,
// so the laws meet now-bounded windows and endpoints that only compare
// equal once resolved.
type lawInterval struct{ Interval }

func (lawInterval) Generate(r *rand.Rand, _ int) reflect.Value {
	a, b := lawEndpoint(r), lawEndpoint(r)
	if a.After(b, eval) {
		a, b = b, a
	}
	return reflect.ValueOf(lawInterval{NewInterval(a, b)})
}

// lawEndpoint draws from a small grid of minutes so that endpoints of
// different spellings often coincide.
func lawEndpoint(r *rand.Rand) DateTime {
	minutes := r.Intn(9)*180 - 720
	shift := MustParseDuration(fmt.Sprintf("PT%dM", max(minutes, -minutes)))
	if minutes < 0 {
		shift = shift.Negated()
	}
	switch r.Intn(5) {
	case 0:
		return Now()
	case 1:
		return Now().Add(shift)
	case 2:
		return Start()
	}
	return At(shift.AddTo(eval))
}

// intersect is a ∩ b and whether it is non-empty, a nil operand standing
// for the empty interval.
func intersect(a, b *Interval) *Interval {
	if a == nil || b == nil {
		return nil
	}
	if r, ok := a.Intersect(*b, eval, nil); ok {
		return &r
	}
	return nil
}

// sameInterval compares two possibly empty intervals at eval.
func sameInterval(a, b *Interval) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Equal(*b, eval)
}

func checkLaw(t *testing.T, law string, f any) {
	t.Helper()
	if err := quick.Check(f, &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Errorf("%s: %v", law, err)
	}
}

// TestIntersectLaws: Intersect is commutative and associative, it is
// non-empty exactly when its operands overlap, and what it returns lies in
// both of them — compared at the evaluation instant, now-bounded endpoints
// included.
func TestIntersectLaws(t *testing.T) {
	checkLaw(t, "commutative", func(a, b lawInterval) bool {
		return sameInterval(intersect(&a.Interval, &b.Interval), intersect(&b.Interval, &a.Interval))
	})
	checkLaw(t, "ok is Overlaps", func(a, b lawInterval) bool {
		_, ok := a.Intersect(b.Interval, eval, nil)
		return ok == a.Overlaps(b.Interval, eval)
	})
	checkLaw(t, "covered by both", func(a, b lawInterval) bool {
		r := intersect(&a.Interval, &b.Interval)
		return r == nil || a.Covers(*r, eval) && b.Covers(*r, eval)
	})
	checkLaw(t, "associative", func(a, b, c lawInterval) bool {
		left := intersect(intersect(&a.Interval, &b.Interval), &c.Interval)
		right := intersect(&a.Interval, intersect(&b.Interval, &c.Interval))
		return sameInterval(left, right)
	})
	checkLaw(t, "an inverted operand is empty", func(a, b lawInterval) bool {
		inverted := NewInterval(a.To, a.From)
		return !a.From.Before(a.To, eval) || intersect(&inverted, &b.Interval) == nil && intersect(&b.Interval, &inverted) == nil
	})
}

// An interval whose start only the clock can carry past its end is empty
// until then, and Intersect tells the horizon when that changes: here
// [eval+1h, now] against a fixed interval covering it, whose own
// endpoints decide nothing before eval+2h.
func TestIntersectTellsHorizonOfInversion(t *testing.T) {
	later := At(eval.Add(time.Hour))
	var h Horizon
	h.Reset(eval)
	if _, ok := NewInterval(later, Now()).Intersect(NewInterval(Start(), At(eval.Add(2*time.Hour))), eval, &h); ok {
		t.Fatal("[eval+1h, now] at eval holds no point, yet the intersection is not empty")
	}
	if next, ok := h.Next(); !ok || !next.Equal(eval.Add(time.Hour)) {
		t.Fatalf("horizon %v (set %v), want %v: the inversion ends when now reaches the start", next, ok, eval.Add(time.Hour))
	}
}

// properInterval is a lawInterval whose From is strictly before its To at
// eval: the intervals Allen's algebra relates.
type properInterval struct{ Interval }

func (properInterval) Generate(r *rand.Rand, _ int) reflect.Value {
	for {
		a, b := lawEndpoint(r), lawEndpoint(r)
		if a.After(b, eval) {
			a, b = b, a
		}
		if a.Before(b, eval) {
			return reflect.ValueOf(properInterval{NewInterval(a, b)})
		}
	}
}

// allen is Allen's thirteen relations, each at eval, with the index of its
// converse: the nine Interval names, and overlaps, overlapped-by,
// started-by and finished-by spelled from endpoints.
var allen = []struct {
	name     string
	holds    func(a, b Interval) bool
	converse int
}{
	{"before", func(a, b Interval) bool { return a.Before(b, eval) }, 1},
	{"after", func(a, b Interval) bool { return a.After(b, eval) }, 0},
	{"meets", func(a, b Interval) bool { return a.Meets(b, eval) }, 3},
	{"met-by", func(a, b Interval) bool { return a.MetBy(b, eval) }, 2},
	{"during", func(a, b Interval) bool { return a.During(b, eval) }, 5},
	{"contains", func(a, b Interval) bool { return a.ContainsInterval(b, eval) }, 4},
	{"starts", func(a, b Interval) bool { return a.Starts(b, eval) }, 9},
	{"finishes", func(a, b Interval) bool { return a.Finishes(b, eval) }, 10},
	{"equal", func(a, b Interval) bool { return a.Equal(b, eval) }, 8},
	{"started-by", func(a, b Interval) bool { return a.From.Equal(b.From, eval) && b.To.Before(a.To, eval) }, 6},
	{"finished-by", func(a, b Interval) bool { return a.To.Equal(b.To, eval) && a.From.Before(b.From, eval) }, 7},
	{"overlaps", func(a, b Interval) bool {
		return a.From.Before(b.From, eval) && b.From.Before(a.To, eval) && a.To.Before(b.To, eval)
	}, 12},
	{"overlapped-by", func(a, b Interval) bool {
		return b.From.Before(a.From, eval) && a.From.Before(b.To, eval) && b.To.Before(a.To, eval)
	}, 11},
}

// TestAllenLaws: of Allen's thirteen relations exactly one holds between
// two proper intervals, and each holds exactly when its converse holds
// with the arguments swapped — compared at the evaluation instant,
// now-bounded endpoints included.
func TestAllenLaws(t *testing.T) {
	seen := make([]bool, len(allen))
	checkLaw(t, "exactly one", func(a, b properInterval) bool {
		n := 0
		for i, r := range allen {
			if r.holds(a.Interval, b.Interval) {
				seen[i] = true
				n++
			}
		}
		return n == 1
	})
	for i, r := range allen {
		if !seen[i] {
			t.Errorf("no generated pair is related by %s", r.name)
		}
	}
	for _, r := range allen {
		converse := allen[r.converse]
		checkLaw(t, r.name+" is "+converse.name+" swapped", func(a, b properInterval) bool {
			return r.holds(a.Interval, b.Interval) == converse.holds(b.Interval, a.Interval)
		})
	}
}

// horizonCall is one report an evaluation makes to a Horizon.
type horizonCall struct {
	kind int // Observe, LE, GE, Until
	a, b DateTime
	t    time.Time
}

func (horizonCall) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(horizonCall{kind: r.Intn(4), a: lawEndpoint(r), b: lawEndpoint(r),
		t: eval.Add(time.Duration(r.Intn(9)*180-720) * time.Minute)})
}

func (c horizonCall) apply(h *Horizon) {
	switch c.kind {
	case 0:
		h.Observe(c.a, c.b)
	case 1:
		h.LE(c.a, c.b)
	case 2:
		h.GE(c.a, c.b)
	default:
		h.Until(c.t)
	}
}

// TestHorizonLaws: a Horizon only ever moves Next earlier — once set, no
// further report unsets it or moves it later.
func TestHorizonLaws(t *testing.T) {
	checkLaw(t, "monotone", func(calls []horizonCall) bool {
		var h Horizon
		h.Reset(eval)
		next, set := h.Next()
		for _, c := range calls {
			c.apply(&h)
			n, ok := h.Next()
			if set && (!ok || n.After(next)) {
				return false
			}
			next, set = n, ok
		}
		return true
	})
}
