package main

// The host's speed. This benchmark runs on a few cores of a shared
// machine whose neighbours slow it down by up to half for minutes at a
// time (see README, "Steadiness"): a time measured during such a stretch
// says more about the neighbours than about the program. The one time the
// benchmark puts a bound on, setup_s, is therefore taken between two
// samples of a fixed piece of reference work and reported as it would
// have read had the reference work run at its nominal speed. The reference
// work is the harness's own and calls nothing of the program under test,
// so a change to the program moves the program's times and not the
// yardstick.

import (
	"runtime"
	"sort"
	"strconv"
	"time"
)

type refNode struct {
	key         string
	left, right *refNode
}

// refUnitNodes sizes one unit of reference work: about four milliseconds
// on this host when it is quiet.
const refUnitNodes = 8000

// refNominal is the duration of one unit on this host when quiet. It only
// fixes the scale: with it, a normalized time equals the measured one on
// a quiet host.
const refNominal = 4 * time.Millisecond

// refUnit does one unit of reference work and returns how long it took:
// it formats keys, builds a search tree and a map of small heap nodes,
// sorts the keys and looks each up again — allocation, pointer chasing,
// string comparison and hashing in roughly the mix the program's own
// XML handling has, which is what makes it slow down when the program
// does.
func refUnit() time.Duration {
	t := time.Now()
	byKey := make(map[string]*refNode, refUnitNodes)
	keys := make([]string, 0, refUnitNodes)
	var root *refNode
	x := uint64(12345)
	for i := 0; i < refUnitNodes; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := strconv.FormatUint(x>>20, 36)
		n := &refNode{key: k}
		byKey[k] = n
		keys = append(keys, k)
		if root == nil {
			root = n
			continue
		}
		for p := root; ; {
			next := &p.right
			if k < p.key {
				next = &p.left
			}
			if *next == nil {
				*next = n
				break
			}
			p = *next
		}
	}
	sort.Strings(keys)
	total := 0
	for _, k := range keys {
		total += len(byKey[k].key)
	}
	runtime.KeepAlive(total)
	return time.Since(t)
}

// hostProbe collects reference-work samples around the set-ups of a run.
type hostProbe struct {
	// units holds every sample's duration in ms, in order.
	units []float64
}

// sample runs n units of reference work.
func (h *hostProbe) sample(n int) {
	for i := 0; i < n; i++ {
		h.units = append(h.units, float64(refUnit())/1e6)
	}
}

// mark returns the current sample count, to slice units by stretch.
func (h *hostProbe) mark() int { return len(h.units) }

// slowdown is how many times slower than nominal the reference work ran
// over the samples taken since mark from (1 on a quiet host): the median
// sample over refNominal. Dividing a measured time by it gives the time at
// nominal speed.
func (h *hostProbe) slowdown(from int) float64 {
	if len(h.units) == from {
		return 1
	}
	return median(h.units[from:]) / (float64(refNominal) / 1e6)
}
