package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestSummarizeStatesItsSample(t *testing.T) {
	ts := summarize(seq(2000))
	if ts.N != 2000 {
		t.Errorf("N = %d, want 2000", ts.N)
	}
	if math.Abs(ts.Median-1000.5) > 1e-9 {
		t.Errorf("median = %v, want 1000.5", ts.Median)
	}
	if ts.TailQ != 0.99 || math.Abs(ts.Tail-ts.P99) > 1e-9 {
		t.Errorf("2000 samples support p99: got tail p%g = %v, p99 = %v", 100*ts.TailQ, ts.Tail, ts.P99)
	}
	// at least ten samples lie beyond the reported tail
	beyond := 0
	for _, v := range seq(2000) {
		if v > ts.Tail {
			beyond++
		}
	}
	if beyond < 10 {
		t.Errorf("only %d samples beyond the reported tail", beyond)
	}
	if small := summarize(seq(40)); small.TailQ != 0 {
		t.Errorf("40 samples support no tail percentile, got p%g", 100*small.TailQ)
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which
// the acceptance rule for spread is written in.
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3,1,4,1,5,9,2,6,5,3], n=4) == [1.75, 3.5, 5.25]
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = quartiles([]float64{10, 20, 40})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles = %v %v %v, want 10 20 40", q1, q2, q3)
	}
	if got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); got != 1 {
		t.Errorf("spread = %v, want (5.25-1.75)/3.5 = 1", got)
	}
}

func TestEndMedians(t *testing.T) {
	if first, last := endMedians(seq(100), 4); first != 13 || last != 88 {
		t.Errorf("quarter medians = %v, %v, want 13, 88", first, last)
	}
	if first, last := endMedians(seq(100), 2); first != 25.5 || last != 75.5 {
		t.Errorf("half medians = %v, %v, want 25.5, 75.5", first, last)
	}
}

func TestClassMedianMean(t *testing.T) {
	// two classes interleaved: medians 1 and 100, mean 50.5 — while the
	// plain median of the mix sits in the gap between them
	var lat []float64
	for i := 0; i < 50; i++ {
		lat = append(lat, 1, 100)
	}
	if got := classMedianMean(lat, 2); got != 50.5 {
		t.Errorf("classMedianMean = %v, want 50.5", got)
	}
}
