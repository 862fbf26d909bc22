package xtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
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

// sameSet compares two interval lists element by element at eval.
func sameSet(a, b []Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i], eval) {
			return false
		}
	}
	return true
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
}

// TestCoalesceLaws: coalescing a coalesced set changes nothing, and the
// order of the input does not matter.
func TestCoalesceLaws(t *testing.T) {
	checkLaw(t, "idempotent", func(in []lawInterval) bool {
		once := Coalesce(lawIntervals(in), eval)
		return sameSet(Coalesce(once, eval), once)
	})
	checkLaw(t, "order-independent", func(in []lawInterval, seed int64) bool {
		ivs := lawIntervals(in)
		shuffled := append([]Interval(nil), ivs...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		return sameSet(Coalesce(shuffled, eval), Coalesce(ivs, eval))
	})
}

func lawIntervals(in []lawInterval) []Interval {
	out := make([]Interval, len(in))
	for i, iv := range in {
		out[i] = iv.Interval
	}
	return out
}
