package xtime

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

var eval = time.Date(2003, time.November, 15, 12, 0, 0, 0, time.UTC)

func TestParseAbsolute(t *testing.T) {
	d, err := Parse("2003-10-23T12:23:34")
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsAbsolute() {
		t.Fatal("expected absolute")
	}
	want := time.Date(2003, time.October, 23, 12, 23, 34, 0, time.UTC)
	if !d.Time().Equal(want) {
		t.Fatalf("got %v want %v", d.Time(), want)
	}
}

func TestParseBareDate(t *testing.T) {
	d, err := Parse("2003-11-01")
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)
	if !d.Time().Equal(want) {
		t.Fatalf("got %v want %v", d.Time(), want)
	}
}

func TestParseSymbolic(t *testing.T) {
	now, err := Parse("now")
	if err != nil || !now.IsNow() {
		t.Fatalf("now: %v %v", now, err)
	}
	start, err := Parse("start")
	if err != nil || !start.IsStart() {
		t.Fatalf("start: %v %v", start, err)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, s := range []string{"", "hello", "2003-13-45T99:99:99", "20031023"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", s)
		}
	}
}

// parseReference is Parse as it was before the shape check: every layout
// tried on every input.
func parseReference(s string) (DateTime, bool) {
	s = strings.TrimSpace(s)
	switch s {
	case "start":
		return Start(), true
	case "now":
		return Now(), true
	}
	for _, layout := range layouts {
		if t, err := time.Parse(layout, s); err == nil {
			return At(t.UTC()), true
		}
	}
	return DateTime{}, false
}

// TestParseShapeCheckChangesNothing: the shape check may only turn away
// what the layouts would have turned away. Hand-picked edge forms plus
// single-byte corruptions of every accepted form.
func TestParseShapeCheckChangesNothing(t *testing.T) {
	inputs := []string{
		"", " ", "now", " now ", "start", "Now", "hello", "Electronics Mart", "1000", "12.50",
		"2003-10-23T12:23:34", " 2003-10-23T12:23:34\n", "2003-10-23T12:23:34.5", "2003-10-23T12:23:34.123456789",
		"2003-10-23T12:23:34Z", "2003-10-23T12:23:34+02:00", "2003-10-23T12:23:34.25-07:00",
		"2003-11-01", "2003-11-01T", "2003-11-01T5:04:05", "2003-11-01T05:4:05", "2003-11-01 12:00:00",
		"2003-11-01t12:00:00", "2003-1-01", "2003-11-1", "03-11-01", "12345-01-01", "+2003-11-01",
		"2003-13-45T99:99:99", "2003-02-30", "20031023", "2003/11/01", "2003-11-01Z", "2003-11-01T24:00:00",
		"２００３-11-01", "2003-11-01T12:00:00 UTC", "0000-01-01", "9999-12-31T23:59:59",
	}
	for _, ok := range []string{"2003-10-23T12:23:34", "2003-10-23T12:23:34.5", "2003-10-23T12:23:34Z", "2003-11-01"} {
		for i := 0; i < len(ok); i++ {
			for _, b := range []byte{'0', '9', '-', 'T', ':', ' ', 'x'} {
				inputs = append(inputs, ok[:i]+string(b)+ok[i+1:], ok[:i]+ok[i+1:], ok[:i]+string(b)+ok[i:])
			}
		}
	}
	for _, in := range inputs {
		want, wantOK := parseReference(in)
		got, err := Parse(in)
		if (err == nil) != wantOK {
			t.Errorf("Parse(%q): err = %v, reference accepts = %v", in, err, wantOK)
			continue
		}
		if wantOK && got != want {
			t.Errorf("Parse(%q) = %v, reference %v", in, got, want)
		}
		if err != nil && err.Error() != fmt.Sprintf("xtime: cannot parse %q as dateTime", strings.TrimSpace(in)) {
			t.Errorf("Parse(%q) error text = %q", in, err)
		}
	}
}

// TestParseRejectIsCheap pins the hot reject path — a general comparison
// probing a non-date string — at nothing for TryParse, which comparisons
// call, and at the one error value for Parse, where the layouts used to
// cost four time.ParseErrors and a formatted message.
func TestParseRejectIsCheap(t *testing.T) {
	for _, in := range []string{"Electronics Mart", "1000", "person1234", "2003-10"} {
		if n := testing.AllocsPerRun(100, func() {
			if _, ok := TryParse(in); ok {
				t.Fatalf("TryParse(%q) accepted", in)
			}
		}); n != 0 {
			t.Errorf("TryParse(%q): %v allocs per rejected probe, want none", in, n)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := Parse(in); err == nil {
				t.Fatalf("Parse(%q) accepted", in)
			}
		}); n > 1 {
			t.Errorf("Parse(%q): %v allocs per rejected probe, want <= 1", in, n)
		}
	}
}

func TestResolveNow(t *testing.T) {
	if got := Now().Resolve(eval); !got.Equal(eval) {
		t.Fatalf("now resolved to %v", got)
	}
}

func TestResolveStartBeforeEverything(t *testing.T) {
	if !Start().Resolve(eval).Before(time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatal("start should resolve before year 1900")
	}
}

func TestCompareOrdering(t *testing.T) {
	a := MustParse("2003-01-01T00:00:00")
	b := MustParse("2003-06-01T00:00:00")
	if a.Compare(b, eval) >= 0 {
		t.Fatal("a should be before b")
	}
	if !Start().Before(a, eval) {
		t.Fatal("start before all absolute values")
	}
	if !a.Before(Now(), eval) {
		t.Fatal("past absolute value before now")
	}
	if Now().Compare(Now(), eval) != 0 {
		t.Fatal("now == now")
	}
}

func TestMinMax(t *testing.T) {
	a := MustParse("2003-01-01T00:00:00")
	b := MustParse("2003-06-01T00:00:00")
	if a.Min(b, eval) != a || a.Max(b, eval) != b {
		t.Fatal("min/max of absolutes")
	}
	if got := Now().Min(a, eval); got != a {
		t.Fatalf("min(now, past) = %v", got)
	}
	if got := Now().Max(a, eval); !got.IsNow() {
		t.Fatalf("max(now, past) = %v", got)
	}
}

func TestAddDuration(t *testing.T) {
	a := MustParse("2003-10-23T12:23:34")
	got := a.Add(MustParseDuration("PT1M"))
	want := time.Date(2003, time.October, 23, 12, 24, 34, 0, time.UTC)
	if !got.Time().Equal(want) {
		t.Fatalf("got %v want %v", got.Time(), want)
	}
}

func TestShiftedNow(t *testing.T) {
	d := Now().Sub(MustParseDuration("PT1H"))
	got := d.Resolve(eval)
	want := eval.Add(-time.Hour)
	if !got.Equal(want) {
		t.Fatalf("now-PT1H resolved to %v, want %v", got, want)
	}
	if d.String() != "now-PT1H" {
		t.Fatalf("String() = %q", d.String())
	}
}

func TestShiftAccumulates(t *testing.T) {
	d := Now().Sub(MustParseDuration("PT30M")).Sub(MustParseDuration("PT30M"))
	if got, want := d.Resolve(eval), eval.Add(-time.Hour); !got.Equal(want) {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"now", "start", "2003-10-23T12:23:34"} {
		d := MustParse(s)
		if d.String() != s {
			t.Errorf("String(%q) = %q", s, d.String())
		}
		if r := MustParse(d.String()); r.Compare(d, eval) != 0 {
			t.Errorf("round trip of %q changed value", s)
		}
	}
}
