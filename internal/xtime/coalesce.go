package xtime

import (
	"sort"
	"time"
)

// Coalesce merges overlapping or adjacent (meeting) intervals into the
// minimal set of maximal intervals, the classic temporal-coalescing
// operation. The input is not modified; the output is sorted by start.
func Coalesce(ivs []Interval, at time.Time) []Interval {
	if len(ivs) == 0 {
		return nil
	}
	sorted := make([]Interval, len(ivs))
	copy(sorted, ivs)
	sort.SliceStable(sorted, func(i, j int) bool {
		c := sorted[i].From.Compare(sorted[j].From, at)
		if c != 0 {
			return c < 0
		}
		return sorted[i].To.Compare(sorted[j].To, at) < 0
	})
	out := []Interval{sorted[0]}
	for _, iv := range sorted[1:] {
		last := &out[len(out)-1]
		// merge when overlapping or meeting (closed intervals: [a,b][b,c]
		// coalesce to [a,c])
		if iv.From.Compare(last.To, at) <= 0 {
			if iv.To.Compare(last.To, at) > 0 {
				last.To = iv.To
			}
			continue
		}
		out = append(out, iv)
	}
	return out
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
