package xcql_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
)

// The registry-equivalence cell of the differential harness: every
// generated store/query pair is replayed fragment by fragment through
// the multi-tenant registry with N=2..32 overlapping standing
// registrations sharing ONE store and one evaluation pass per arrival —
// and each registration's per-arrival delta trace and final standing
// result must be byte-identical to replayOracle's: the same history on a
// private store, evaluated from scratch at every step and diffed in the
// test, through none of the registry's code. Sharing (one engine advance
// per identical plan, unit memoization across plans) is an execution
// strategy, not a semantics change; this suite pins that.

// regSpec is one standing registration in a registry replay.
type regSpec struct {
	src  string
	mode xcql.Mode
}

// replayRegistry feeds frags one at a time into a single shared store
// and registry carrying every spec as a live registration, with the
// clock on the replaySteps schedule every replay runs. It returns one
// trace per spec, in spec order.
func replayRegistry(t *testing.T, ins *genstore.Instance, frags []*xcql.Fragment, specs []regSpec) []replayTrace {
	t.Helper()
	var st *xcql.Store
	if ins.Profile.Scan {
		st = fragment.NewScanStore(ins.Structure)
	} else {
		st = fragment.NewStore(ins.Structure)
	}
	e := xcql.NewEngine()
	e.RegisterStore("s", st)
	var at time.Time
	r := e.Registry()
	r.SetClock(func() time.Time { return at })

	traces := make([]replayTrace, len(specs))
	regs := make([]*xcql.QueryRegistration, len(specs))
	for i, spec := range specs {
		q, err := e.Compile(spec.src, spec.mode)
		if err != nil {
			t.Fatalf("compile %q under %s: %v", spec.src, spec.mode, err)
		}
		reg, err := r.Register(q, xcql.RegistryOptions{
			OnResult: func(res xcql.RegistryResult) {
				if res.Err != nil {
					// the oracle's marker for a failed evaluation: both
					// sides must fail at exactly the same arrivals
					traces[i].deltas = append(traces[i].deltas, "!error")
					return
				}
				traces[i].deltas = append(traces[i].deltas, xcql.FormatSequence(res.Delta))
			},
		})
		if err != nil {
			t.Fatalf("register %s: %v", spec.mode, err)
		}
		regs[i] = reg
	}
	replaySteps(t, st, frags, &at, r.Apply)
	for i := range specs {
		traces[i].final = xcql.FormatSequence(regs[i].ItemsSnapshot())
		regs[i].Close()
	}
	return traces
}

// registrySpecs builds the overlapping registration set for one
// instance: every generated query enters twice under a rotating plan,
// then the set is padded with duplicate registrations (cycling queries
// and plans) up to n — the duplicates are what force engine sharing and
// cross-query unit sharing inside one group.
func registrySpecs(ins *genstore.Instance, n int) []regSpec {
	var specs []regSpec
	for j, q := range ins.Queries {
		mode := harnessModes[j%len(harnessModes)]
		specs = append(specs, regSpec{src: q.Src, mode: mode}, regSpec{src: q.Src, mode: mode})
	}
	for j := 0; len(specs) < n; j++ {
		q := ins.Queries[j%len(ins.Queries)]
		specs = append(specs, regSpec{src: q.Src, mode: harnessModes[(j/2)%len(harnessModes)]})
	}
	if len(specs) > n {
		specs = specs[:n]
	}
	return specs
}

// TestSharedMemoSurvivesChurn: two incremental registrations whose plans
// differ — so each has an engine of its own — but share the fraud piece's
// unit signature, on a re-announced credit stream. The second joins a
// quarter of the way in: its seeding evaluates the accounts the arrival
// left clean itself, and from then on the first, which evaluates first,
// computes every dirty account and the second takes it from the shared
// pass, its per-version memo included. When the first is closed half-way
// the second re-runs from the memos it took, not from the ones it made
// when it joined. Its deltas after joining and its final standing result
// are replayOracle's, and so are the first's up to its close.
func TestSharedMemoSurvivesChurn(t *testing.T) {
	structure := xcql.MustParseTagStructure(genstore.CreditStructure)
	pub, frags := genstore.NewCreditPublisher(3)
	for i := 1; i <= 24; i++ {
		a := 0
		if i%4 == 3 {
			a = 1 + i%2
		}
		announce, tx := pub.Charge(a, 3000, genstore.CreditBase.Add(time.Duration(i)*30*time.Minute))
		frags = append(frags, announce, tx)
	}
	ins := &genstore.Instance{Structure: structure, Fragments: frags}
	const where = ` where sum($a/transaction?[now-PT1H,now]/amount) >= 5000 return $a/@id`
	srcs := []string{
		`for $a in stream("s")//account` + where,
		`for $a in (stream("s")//account, stream("s")//account)` + where,
	}

	st := fragment.NewStore(structure)
	e := xcql.NewEngine()
	e.RegisterStore("s", st)
	var at time.Time
	r := e.Registry()
	r.SetClock(func() time.Time { return at })
	traces := make([]replayTrace, len(srcs))
	regs := make([]*xcql.QueryRegistration, len(srcs))
	register := func(i int) {
		q, err := e.Compile(srcs[i], xcql.QaCPlus)
		if err != nil {
			t.Fatal(err)
		}
		if regs[i], err = r.Register(q, xcql.RegistryOptions{OnResult: func(res xcql.RegistryResult) {
			if res.Err != nil {
				traces[i].deltas = append(traces[i].deltas, "!error")
				return
			}
			traces[i].deltas = append(traces[i].deltas, xcql.FormatSequence(res.Delta))
		}}); err != nil {
			t.Fatal(err)
		}
	}
	register(0)
	// the second joins on a quiet account's re-announcement, so that its
	// seeding evaluates the busy account 0 itself
	steps, joinAt, closeAt := 0, -1, len(frags)/2
	replaySteps(t, st, frags, &at, func(f *xcql.Fragment) {
		switch {
		case joinAt < 0 && steps >= len(frags)/4 && f != nil && f.TSID == genstore.CreditAccountTSID && f.FillerID != 1:
			joinAt = steps
			register(1)
			if a, b := regs[0].Strategy(), regs[1].Strategy(); a != "1 piece (per-binding on account; sum folded over transaction terms)" || b != "2 pieces (per-binding on account; per-binding on account)" {
				t.Fatalf("strategies %q and %q, want the fraud piece per binding in both, folded in the first", a, b)
			}
		case steps == closeAt:
			groups := r.Groups()
			if len(groups) != 1 || groups[0].Members != 2 || groups[0].Stats.SharedUnitHits == 0 {
				t.Fatalf("before the close: groups %+v, want the two registrations in one group sharing units", groups)
			}
			regs[0].Close()
		}
		r.Apply(f)
		steps++
	})
	traces[1].final = xcql.FormatSequence(regs[1].ItemsSnapshot())

	// the survivor's first delivery re-emits its standing result; what
	// follows is the oracle's, delta for delta
	want := replayOracle(t, ins, frags, srcs[1], xcql.QaCPlus)
	if !slices.ContainsFunc(want.deltas[closeAt:], func(d string) bool { return d != "" }) {
		t.Fatalf("the fraud query reports nothing after the close: the case tests nothing")
	}
	want.deltas = want.deltas[joinAt+1:]
	if got := (replayTrace{deltas: traces[1].deltas[1:], final: traces[1].final}); got.String() != want.String() {
		t.Fatalf("the registration left alone diverged from the oracle\noracle:\n%s\nregistry:\n%s", harnessTruncate(want.String()), harnessTruncate(got.String()))
	}
	first := replayOracle(t, ins, frags, srcs[0], xcql.QaCPlus)
	if got, want := traces[0].deltas, first.deltas[:closeAt]; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("the closed registration diverged from the oracle before its close\noracle:\n%q\nregistry:\n%q", want, got)
	}
}

// TestRegistryEquivalence replays 200+ generated store/query pairs (40
// under -short) through the registry and pins every registration's
// delta stream and final standing result byte-identical to the oracle
// under every plan.
func TestRegistryEquivalence(t *testing.T) {
	minPairs := 200
	if testing.Short() {
		minPairs = 40
	}
	// registration-count schedule: cycles the required N=2..32 band
	nSchedule := []int{2, 6, 12, 32, 8, 16, 4, 24}
	pairs, inst := 0, 0
	for seed := int64(1); pairs < minPairs; seed++ {
		if seed > 100 {
			t.Fatalf("generator exhausted 100 seeds with only %d pairs", pairs)
		}
		for _, p := range harnessProfiles(seed) {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatalf("%s: generate: %v", p, err)
			}
			n := nSchedule[inst%len(nSchedule)]
			inst++
			specs := registrySpecs(ins, n)
			traces := replayRegistry(t, ins, ins.Fragments, specs)
			// oracle replays are cached per distinct query and plan: every
			// registration of it must match the one independent baseline
			refs := make(map[regSpec]replayTrace)
			verified := make(map[string]bool)
			for i, spec := range specs {
				ref, ok := refs[spec]
				if !ok {
					ref = replayOracle(t, ins, ins.Fragments, spec.src, spec.mode)
					refs[spec] = ref
				}
				if got, want := traces[i].String(), ref.String(); got != want {
					t.Fatalf("%s reg[%d] under %s diverged from the oracle\noracle:\n%s\nregistry:\n%s",
						p, i, spec.mode, harnessTruncate(want), harnessTruncate(got))
				}
				verified[spec.src] = true
			}
			// a pair counts only when the instance's replay actually
			// verified that query (small N truncates the spec list)
			pairs += len(verified)
		}
	}
	t.Logf("verified %d registry store/query pairs (%d registry replays)", pairs, inst)
}
