package xcql_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/registry"
)

// The incremental cell of the differential harness: every generated
// store/query pair is REPLAYED fragment by fragment through a continuous
// query, and it must agree byte for byte, on every per-arrival delta and
// on the final standing result, with replayOracle: a from-scratch
// evaluation at every step, diffed here in the test. A continuous query
// runs the one standing engine (internal/inc) under every plan; its
// decomposition differs radically per plan (QaC+ indexes by tsid, CaQ
// degrades to whole-plan recomputation), so identical output across the
// plans pins the claim that incremental evaluation is an execution
// strategy, not a semantics change.

// replayTrace is the observable output of one fragment-by-fragment
// replay: the serialized delta of every arrival and the final standing
// result.
type replayTrace struct {
	deltas []string
	final  string
}

func (tr replayTrace) String() string {
	return strings.Join(tr.deltas, "\n--\n") + "\n==\n" + tr.final
}

// replayTick is the replays' pure clock advance: after every third
// arrival the clock runs 40 minutes ahead of the data with no fragment to
// evaluate, so sliding windows expire between arrivals, not only on them.
func replayTick(arrival int) time.Duration {
	if arrival%3 != 2 {
		return 0
	}
	return 40 * time.Minute
}

// replayEnd is the instant every replay of frags is evaluated at last,
// whatever order they arrived in: the latest validTime plus every tick,
// which no replay's clock can have passed. Standing results over sliding
// windows are comparable across arrival orders only at one instant.
func replayEnd(frags []*xcql.Fragment) time.Time {
	var end time.Time
	var ticks time.Duration
	for i, f := range frags {
		if f.ValidTime.After(end) {
			end = f.ValidTime
		}
		ticks += replayTick(i)
	}
	return end.Add(ticks)
}

// replayAdvance moves a replay's clock past arrival i where the schedule
// has it move without a fragment — a tick, or the jump to replayEnd after
// the last arrival — and reports whether it did: the caller evaluates.
func replayAdvance(i int, frags []*xcql.Fragment, at *time.Time) bool {
	switch tick := replayTick(i); {
	case i == len(frags)-1:
		*at = replayEnd(frags)
	case tick > 0:
		*at = at.Add(tick)
	default:
		return false
	}
	return true
}

// replaySetup builds one replay's fresh store and the query compiled over
// it under mode.
func replaySetup(t *testing.T, ins *genstore.Instance, src string, mode xcql.Mode) (*xcql.Store, *xcql.Query) {
	t.Helper()
	var st *xcql.Store
	if ins.Profile.Scan {
		st = fragment.NewScanStore(ins.Structure)
	} else {
		st = fragment.NewStore(ins.Structure)
	}
	e := xcql.NewEngine()
	e.RegisterStore("s", st)
	q, err := e.Compile(src, mode)
	if err != nil {
		t.Fatalf("compile %q under %s: %v", src, mode, err)
	}
	return st, q
}

// replaySteps drives one replay's schedule: frags are stored one at a
// time, with the evaluation clock *at pinned to the running maximum
// validTime (fragments never "un-happen"; reordered histories replay with
// a monotone clock), and step is called after every arrival and — with
// nil — after every replayTick advance and the final jump to replayEnd.
func replaySteps(t *testing.T, st *xcql.Store, frags []*xcql.Fragment, at *time.Time, step func(*xcql.Fragment)) {
	t.Helper()
	for i, f := range frags {
		if err := st.Add(f); err != nil {
			t.Fatalf("add filler %d: %v", f.FillerID, err)
		}
		if f.ValidTime.After(*at) {
			*at = f.ValidTime
		}
		step(f)
		if replayAdvance(i, frags, at) {
			step(nil)
		}
	}
}

// replayOracle is the reference every standing-query replay must
// reproduce, and it shares no code with them: at every step the query is
// evaluated from scratch and diffed, by serialized item, against the
// step before. An evaluation error is a legitimate outcome (e.g. CaQ's
// fn:view before the root filler arrives in a reordered history); it is
// recorded as a marker, so a replay must fail at exactly the same steps.
func replayOracle(t *testing.T, ins *genstore.Instance, frags []*xcql.Fragment,
	src string, mode xcql.Mode) replayTrace {
	t.Helper()
	st, q := replaySetup(t, ins, src, mode)
	var tr replayTrace
	var at time.Time
	prev := map[string]bool{}
	replaySteps(t, st, frags, &at, func(*xcql.Fragment) {
		seq, err := q.EvalLimits(context.Background(), at, q.Limits)
		if err != nil {
			tr.deltas = append(tr.deltas, "!error")
			return
		}
		next := make(map[string]bool, len(seq))
		var delta xcql.Sequence
		for _, it := range seq {
			key := xcql.FormatSequence(xcql.Sequence{it})
			if !next[key] && !prev[key] {
				delta = append(delta, it)
			}
			next[key] = true
		}
		prev = next
		tr.deltas = append(tr.deltas, xcql.FormatSequence(delta))
		tr.final = xcql.FormatSequence(seq)
	})
	return tr
}

// replayStanding replays frags through a standing query, the one
// registration of a registry over a fresh store, compiled under mode, on
// the replaySteps schedule. An arrival whose evaluation failed replays as
// "!error".
func replayStanding(t *testing.T, ins *genstore.Instance, frags []*xcql.Fragment, src string, mode xcql.Mode) replayTrace {
	t.Helper()
	st, q := replaySetup(t, ins, src, mode)
	var tr replayTrace
	var at time.Time
	r := registry.New(func() time.Time { return at })
	reg, err := r.Register(q, registry.Options{OnResult: func(res registry.Result) {
		delta := xcql.FormatSequence(res.Delta)
		if res.Err != nil {
			delta = "!error"
		}
		tr.deltas = append(tr.deltas, delta)
	}})
	if err != nil {
		t.Fatal(err)
	}
	replaySteps(t, st, frags, &at, r.Apply)
	tr.final = xcql.FormatSequence(reg.ItemsSnapshot())
	return tr
}

// TestDiffHarnessIncremental replays 200+ generated store/query pairs
// (40 under -short) and pins incremental continuous evaluation
// byte-identical to re-evaluation from scratch under every plan.
// Every profile of a seed is replayed — one instance can hold fifty
// queries, and a pair count alone would stop before the re-announcing
// profiles at the end of the grid — over at least four seeds (two under
// -short).
func TestDiffHarnessIncremental(t *testing.T) {
	minPairs, minSeeds := 200, int64(4)
	if testing.Short() {
		minPairs, minSeeds = 40, 2
	}
	pairs := 0
	for seed := int64(1); pairs < minPairs || seed <= minSeeds; seed++ {
		if seed > 100 {
			t.Fatalf("generator exhausted 100 seeds with only %d pairs", pairs)
		}
		for _, p := range harnessProfiles(seed) {
			pairs += runIncrementalInstance(t, p)
		}
	}
	t.Logf("verified %d incremental store/query pairs", pairs)
}

// runIncrementalInstance replays one generated history per query: the
// oracle under every plan as the reference, and a continuous query under
// every plan against it.
func runIncrementalInstance(t *testing.T, p genstore.Profile) int {
	t.Helper()
	ins, err := genstore.Generate(p)
	if err != nil {
		t.Fatalf("%s: generate: %v", p, err)
	}
	// the immutability guard: every replay ingests the same fragments, so
	// a write to a stored node by any of them shows here
	prints := fingerprintPayloads(ins.Fragments)
	defer func() { checkPayloads(t, prints, p.String()) }()
	for _, query := range ins.Queries {
		// the first replay of a baseline group — an oracle's — is what
		// every other replay of the group must reproduce
		split := splitOf(p, query)
		baselines := make(map[string]replayTrace)
		check := func(tr replayTrace, mode xcql.Mode, label string) {
			t.Helper()
			group := split.baselineGroup(mode)
			want, ok := baselines[group]
			if !ok {
				baselines[group] = tr
				// QaC+'s deltas run ahead, to the same end: the
				// navigating plans (replayed first) set the final result
				if split != indexAhead || group == "every plan" {
					return
				}
				tr, want = replayTrace{final: tr.final}, replayTrace{final: baselines["every plan"].final}
			}
			if got, want := tr.String(), want.String(); got != want {
				t.Fatalf("%s/%s: %s diverged from the oracle baseline\nbaseline:\n%s\ngot:\n%s",
					p, query.Name, label, harnessTruncate(want), harnessTruncate(got))
			}
		}
		for _, mode := range harnessModes {
			check(replayOracle(t, ins, ins.Fragments, query.Src, mode), mode, fmt.Sprintf("oracle/%s", mode))
			check(replayStanding(t, ins, ins.Fragments, query.Src, mode), mode, fmt.Sprintf("inc/%s", mode))
		}
	}
	return len(ins.Queries)
}

// TestIncrementalArrivalOrder is the arrival-order metamorphic suite:
// the same fragment set replayed in document order, reverse order, and
// seeded shuffles. Per order, the continuous query's replay must agree
// byte for byte with the oracle (the differential property). Across orders, the FINAL
// standing result must be identical — arrival order never leaks into
// the standing state — and nothing may appear in a final result that
// was never emitted as a delta (a lost emission could silently narrow
// what a consumer ever sees).
//
// The raw cumulative delta SET is deliberately not compared across
// orders: transiently emitted items differ legitimately (e.g. a version
// carries vtTo="now" until its successor arrives — in one order the
// successor is already there, in another the "now"-annotated item is
// emitted first and superseded later). DESIGN.md documents this.
func TestIncrementalArrivalOrder(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range []genstore.Profile{
			{Seed: seed},
			{Seed: seed, Duplicates: true, Drops: true},
			{Seed: seed, Reannounce: true},
		} {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatalf("%s: generate: %v", p, err)
			}
			orders := map[string][]*xcql.Fragment{
				"doc":      ins.Fragments,
				"reverse":  ins.ReversedFragments(),
				"shuffle1": ins.ShuffledFragments(seed * 101),
				"shuffle2": ins.ShuffledFragments(seed*101 + 1),
			}
			for _, query := range ins.Queries {
				// finals is keyed by order: every leg must land on one
				// standing result.
				finals := make(map[string]string)
				mode := xcql.QaCPlus
				for name, frags := range orders {
					want := replayOracle(t, ins, frags, query.Src, mode).String()
					inc := replayStanding(t, ins, frags, query.Src, mode)
					if got := inc.String(); got != want {
						t.Fatalf("%s/%s/%s order=%s: the replay diverged from the oracle\noracle:\n%s\nreplay:\n%s",
							p, query.Name, mode, name, harnessTruncate(want), harnessTruncate(got))
					}
					// no silent appearance: every line of the final result
					// was emitted in some delta of this replay
					emitted := make(map[string]bool)
					for _, d := range inc.deltas {
						for _, line := range strings.Split(d, "\n") {
							emitted[line] = true
						}
					}
					for _, line := range strings.Split(inc.final, "\n") {
						if line != "" && !emitted[line] {
							t.Fatalf("%s/%s/%s order=%s: final item never emitted as delta: %s",
								p, query.Name, mode, name, harnessTruncate(line))
						}
					}
					finals[name] = inc.final
				}
				want := finals["doc"]
				for name, got := range finals {
					if got != want {
						t.Fatalf("%s/%s: final standing result depends on arrival order\ndoc:\n%s\n%s:\n%s",
							p, query.Name, harnessTruncate(want), name, harnessTruncate(got))
					}
				}
			}
		}
	}
}

// FuzzIncrementalArrival fuzzes the differential property: an arbitrary
// (seed, permutation, profile-flag) triple generates a history, shuffles
// its arrival order, and replays it through a continuous query against the
// oracle.
func FuzzIncrementalArrival(f *testing.F) {
	f.Add(int64(1), int64(1), uint8(0))
	f.Add(int64(2), int64(7), uint8(3))
	f.Add(int64(5), int64(42), uint8(5))
	f.Add(int64(9), int64(13), uint8(7))
	// re-announced parents under each fragment plan, in order and shuffled
	f.Add(int64(1), int64(4), uint8(64|16))
	f.Add(int64(6), int64(21), uint8(64|32|1))
	f.Add(int64(4), int64(9), uint8(64|48|6))
	// re-announced, duplicated and reordered at once under QaC+:
	// a unit's versions re-run one by one against its memo
	f.Add(int64(1), int64(3), uint8(64|32|2|1))
	f.Add(int64(3), int64(17), uint8(64|48|2|1))
	f.Add(int64(8), int64(5), uint8(64|32|8|2|1))
	// the same, on the window-sum query, whose sum QaC+ folds
	// from per-child terms: terms are kept, and some reach their horizon
	f.Add(int64(0), int64(72), uint8(64|32|2|1))
	f.Add(int64(0), int64(72), uint8(64|48|2|1))
	f.Add(int64(3), int64(22), uint8(64|32|2|1))
	f.Add(int64(3), int64(22), uint8(64|48|2|1))
	// a child position taken from each version a for clause binds, the
	// versions holding the same children: QaC+ reads every binding's
	// children at once and hands each its own group
	f.Add(int64(0), int64(75), uint8(64|32|2|1))
	f.Add(int64(0), int64(76), uint8(64|48|2|1))
	f.Add(int64(3), int64(47), uint8(64|48|2|1))
	f.Add(int64(3), int64(48), uint8(64|32|2|1))
	f.Fuzz(func(t *testing.T, seed, permSeed int64, flags uint8) {
		p := genstore.Profile{
			Seed:       seed%1000 + 1,
			Reorder:    flags&1 != 0,
			Duplicates: flags&2 != 0,
			Drops:      flags&4 != 0,
			Scan:       flags&8 != 0,
			Reannounce: flags&64 != 0,
		}
		ins, err := genstore.Generate(p)
		if err != nil {
			t.Skip()
		}
		frags := ins.ShuffledFragments(permSeed)
		// one query per fuzz input keeps executions fast; rotate through
		// the battery so every query form gets coverage
		query := ins.Queries[int(uint64(permSeed)%uint64(len(ins.Queries)))]
		// bits 4–5 pick the plan; 3 picks QaC+ too, so that every seed
		// above keeps the plan it was written for
		mode := harnessModes[min(int(flags>>4&3), len(harnessModes)-1)]
		want := replayOracle(t, ins, frags, query.Src, mode).String()
		if got := replayStanding(t, ins, frags, query.Src, mode).String(); got != want {
			t.Fatalf("%s/%s/%s: the replay diverged from the oracle\noracle:\n%s\ngot:\n%s",
				p, query.Name, mode, harnessTruncate(want), harnessTruncate(got))
		}
	})
}
