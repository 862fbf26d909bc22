package xtime

import (
	"testing"
	"time"
)

func iv(from, to string) Interval {
	return NewInterval(MustParse(from), MustParse(to))
}

func TestParseInterval(t *testing.T) {
	got, err := ParseInterval("[2003-11-01,2003-12-01]")
	if err != nil {
		t.Fatal(err)
	}
	if got.From.String() != "2003-11-01T00:00:00" || got.To.String() != "2003-12-01T00:00:00" {
		t.Fatalf("got %v", got)
	}
	point, err := ParseInterval("[now]")
	if err != nil {
		t.Fatal(err)
	}
	if !point.IsPoint(eval) || !point.From.IsNow() {
		t.Fatalf("point: %v", point)
	}
	if _, err := ParseInterval("[a,b,c]"); err == nil {
		t.Fatal("3-part interval should fail")
	}
}

func TestIntervalContains(t *testing.T) {
	window := iv("2003-11-01T00:00:00", "2003-12-01T00:00:00")
	if !window.Contains(MustParse("2003-11-15T00:00:00"), eval) {
		t.Fatal("mid point should be contained")
	}
	if !window.Contains(MustParse("2003-11-01T00:00:00"), eval) {
		t.Fatal("closed interval includes left endpoint")
	}
	if !window.Contains(MustParse("2003-12-01T00:00:00"), eval) {
		t.Fatal("closed interval includes right endpoint")
	}
	if window.Contains(MustParse("2003-12-01T00:00:01"), eval) {
		t.Fatal("point past end should not be contained")
	}
}

func TestIntervalIntersect(t *testing.T) {
	a := iv("2003-01-01T00:00:00", "2003-06-01T00:00:00")
	b := iv("2003-03-01T00:00:00", "2003-09-01T00:00:00")
	got, ok := a.Intersect(b, eval, nil)
	if !ok {
		t.Fatal("expected overlap")
	}
	want := iv("2003-03-01T00:00:00", "2003-06-01T00:00:00")
	if !got.Equal(want, eval) {
		t.Fatalf("got %v want %v", got, want)
	}
	c := iv("2004-01-01T00:00:00", "2004-02-01T00:00:00")
	if _, ok := a.Intersect(c, eval, nil); ok {
		t.Fatal("disjoint intervals should not intersect")
	}
}

func TestIntersectWithNowBound(t *testing.T) {
	life := NewInterval(MustParse("2003-01-01T00:00:00"), Now())
	window := iv("2003-06-01T00:00:00", "2003-07-01T00:00:00")
	got, ok := life.Intersect(window, eval, nil)
	if !ok || !got.Equal(window, eval) {
		t.Fatalf("got %v ok=%v", got, ok)
	}
	future := iv("2004-01-01T00:00:00", "2004-02-01T00:00:00") // after eval
	if _, ok := life.Intersect(future, eval, nil); ok {
		t.Fatal("[.., now] should not reach past the evaluation instant")
	}
}

func TestAllenRelations(t *testing.T) {
	a := iv("2003-01-01T00:00:00", "2003-02-01T00:00:00")
	b := iv("2003-03-01T00:00:00", "2003-04-01T00:00:00")
	meet := iv("2003-02-01T00:00:00", "2003-03-01T00:00:00")
	inner := iv("2003-01-10T00:00:00", "2003-01-20T00:00:00")

	if !a.Before(b, eval) || b.Before(a, eval) {
		t.Fatal("before")
	}
	if !b.After(a, eval) {
		t.Fatal("after")
	}
	if !a.Meets(meet, eval) || !meet.MetBy(a, eval) {
		t.Fatal("meets")
	}
	if !inner.During(a, eval) || !a.ContainsInterval(inner, eval) {
		t.Fatal("during/contains")
	}
	if !a.Covers(inner, eval) || !a.Covers(a, eval) {
		t.Fatal("covers")
	}
	st := iv("2003-01-01T00:00:00", "2003-01-15T00:00:00")
	if !st.Starts(a, eval) {
		t.Fatal("starts")
	}
	fi := iv("2003-01-20T00:00:00", "2003-02-01T00:00:00")
	if !fi.Finishes(a, eval) {
		t.Fatal("finishes")
	}
}

func TestCoverAndDuration(t *testing.T) {
	a := iv("2003-01-01T00:00:00", "2003-02-01T00:00:00")
	b := iv("2003-03-01T00:00:00", "2003-04-01T00:00:00")
	cov := a.Cover(b, eval)
	if cov.From != a.From || cov.To != b.To {
		t.Fatalf("cover = %v", cov)
	}
	if d := a.Duration(eval); d != 31*24*time.Hour {
		t.Fatalf("duration = %v", d)
	}
}

func TestVersionIntervalBounds(t *testing.T) {
	cases := []struct {
		vi     VersionInterval
		count  int
		lo, hi int
	}{
		{VersionInterval{From: 1, To: 10}, 5, 1, 5},
		{VersionInterval{From: 3, To: 4}, 10, 3, 4},
		{LastVersion(), 7, 7, 7},
		{VersionInterval{From: 2, ToLast: true}, 9, 2, 9},
		{VersionPoint(4), 2, 4, 2}, // empty: lo > hi
		{VersionInterval{From: -3, To: 2}, 5, 1, 2},
	}
	for _, c := range cases {
		lo, hi := c.vi.Bounds(c.count)
		if lo != c.lo || hi != c.hi {
			t.Errorf("%v.Bounds(%d) = (%d,%d), want (%d,%d)", c.vi, c.count, lo, hi, c.lo, c.hi)
		}
	}
}

func TestCoverAll(t *testing.T) {
	if _, ok := CoverAll(nil, eval, nil); ok {
		t.Fatal("empty CoverAll should report !ok")
	}
	got, ok := CoverAll([]Interval{
		iv("2003-02-01T00:00:00", "2003-03-01T00:00:00"),
		iv("2003-01-01T00:00:00", "2003-01-15T00:00:00"),
	}, eval, nil)
	if !ok || got.From.String() != "2003-01-01T00:00:00" || got.To.String() != "2003-03-01T00:00:00" {
		t.Fatalf("got %v", got)
	}
}

func TestIntervalString(t *testing.T) {
	if s := Lifetime().String(); s != "[start,now]" {
		t.Fatalf("lifetime = %q", s)
	}
	if s := PointInterval(Now()).String(); s != "[now]" {
		t.Fatalf("point = %q", s)
	}
}
