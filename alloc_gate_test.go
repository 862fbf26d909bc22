package xcql_test

import (
	"testing"

	"xcql/internal/evalbench"
	ixcql "xcql/internal/xcql"
	"xcql/internal/xmark"
)

// The allocation gate: reads are zero-copy — get_fillers builds one top
// element per visible version and shares everything below it, projections,
// hole filling and constructors rebuild only what they change — so the
// allocations of an evaluation follow the number of versions and result
// items it touches, not the number of nodes under them — and, since the
// translator pushes predicates below the access path (PR 18), the number
// of versions the query keeps, not the number it examines: Q1 returns one
// name out of 517 person versions and Q5 counts the 120 closed auctions
// of 195 that sold at 40 or more. The ceilings sit ~15 % above the counts
// measured when that landed (619 / 109, 1 270 / 1 075, 1 626 / 1 214;
// before it Q1 and QD needed 9 829 / 9 323 and 2 815 / 2 409, and the
// clone-per-read engine before PR 12 48 703 / 48 197 and 8 275 / 7 869):
// a change that brings a deep copy back on the read path — in the store,
// the cache, the label index, a projection or a constructor — or a top
// element back for every version a filter turns away goes through them,
// while allocator noise and small evaluator changes do not.
//
// The last ceiling is the incremental engine's: what one arrival costs a
// standing query must follow what the arrival touches.
//
// `make alloc-gate` (part of `make check`) runs it without the race
// detector, whose instrumentation allocates on its own.
func TestAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds, err := evalbench.Build(0.02, false)
	if err != nil {
		t.Fatal(err)
	}
	const queryQD = `for $c in stream("auction")//closed_auction return $c/price`
	for _, c := range []struct {
		name, src string
		mode      ixcql.Mode
		ceiling   float64
	}{
		{"Q1/QaC+", xmark.QueryQ1(), ixcql.QaCPlus, 710},
		{"Q1/QaC++", xmark.QueryQ1(), ixcql.QaCPlusPlus, 125},
		{"Q5/QaC+", xmark.QueryQ5(), ixcql.QaCPlus, 1450},
		{"Q5/QaC++", xmark.QueryQ5(), ixcql.QaCPlusPlus, 1230},
		{"QD/QaC+", queryQD, ixcql.QaCPlus, 1880},
		{"QD/QaC++", queryQD, ixcql.QaCPlusPlus, 1400},
	} {
		q, err := ds.Runtime.Compile(c.src, c.mode)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// AllocsPerRun's warm-up run builds the label index, as the first
		// read after a write does
		got := testing.AllocsPerRun(5, func() {
			if _, err := q.Eval(evalbench.EvalInstant); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		t.Logf("%s: %.0f allocs/op (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", c.name, got, c.ceiling)
		}
	}

	// The standing fraud query on a re-announced credit stream, 250
	// charges in (bench/e2e's standing-window shape): one charge — the
	// account's re-announcement, then the transaction — recomputes the
	// charged account's bindings twice and nothing else, 3 417 allocations
	// averaged over the next two rounds of the twenty accounts (4 412 when
	// per-binding decomposition and window-expiry scheduling landed, PR
	// 14, before comparisons stopped allocating). Without the decomposition every charge re-runs all twenty
	// accounts, without the schedule every tick of the clock does: either
	// way about twenty times the ceiling.
	const fraudCeiling = 4000
	cs := newCreditStanding(t, creditQueries[2].src, true, 250)
	charges := cs.charges(41)
	next := 0
	got := testing.AllocsPerRun(len(charges)-1, func() {
		if err := cs.arrive(charges[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	t.Logf("fraud/incremental, 250 re-announced charges: %.0f allocs/charge (ceiling %d)", got, fraudCeiling)
	if got > fraudCeiling {
		t.Errorf("fraud/incremental: %.0f allocs per charge, ceiling %d; strategy: %s", got, fraudCeiling, cs.cq.IncrementalStrategy())
	}
}
