package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks; sorted must be ascending.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// tailPercentiles are the candidates for the "high" percentile of a
// timing, most demanding first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.95, 0.9}

// timingSummary is how every timing is reported: the median, the mean,
// the p99, the highest percentile that still has at least ten samples
// beyond it, and the sample count they were taken from.
type timingSummary struct {
	N      int
	Median float64
	Mean   float64
	// P99 is meaningful only when N >= minSamples.
	P99 float64
	// TailQ is the percentile Tail was read at (0.999 = p99.9); 0 when
	// the sample is too small to support any tail percentile.
	TailQ float64
	Tail  float64
}

// minSamples is the sample count below which a timing is not reported:
// the smallest that leaves ten samples beyond the p99.
const minSamples = 1000

// supportedTail returns the highest candidate percentile with at least
// ten samples beyond it in a sample of n, or 0 when none qualifies.
func supportedTail(n int) float64 {
	for _, q := range tailPercentiles {
		if float64(n)*(1-q) >= 10-1e-6 { // 1-q is inexact: 100 × (1-0.9) is a hair under 10
			return q
		}
	}
	return 0
}

func summarize(samples []float64) timingSummary {
	s := sortedCopy(samples)
	ts := timingSummary{N: len(s), Median: quantile(s, 0.5), Mean: mean(s), P99: quantile(s, 0.99)}
	if q := supportedTail(len(s)); q > 0 {
		ts.TailQ, ts.Tail = q, quantile(s, q)
	}
	return ts
}

// endMedians returns the medians of the first and the last 1/parts of
// samples in arrival order — the two ends drift_ratio compares.
func endMedians(samples []float64, parts int) (first, last float64) {
	q := len(samples) / parts
	if q == 0 {
		return 0, 0
	}
	return median(samples[:q]), median(samples[len(samples)-q:])
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// default "exclusive" method), which is what the acceptance rule for
// run-to-run spread is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		// position i*(n+1)/4 on a 1-based scale, clamped into the sample
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*delta
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
