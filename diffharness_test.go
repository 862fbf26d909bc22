package xcql_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/segstore"
	"xcql/internal/stream"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
	"xcql/internal/xtime"
)

// The metamorphic differential harness: randomized stream histories —
// multi-version, reordered, duplicated, faulted (dangling holes), over
// both store kinds — crossed with randomized XCQL queries, evaluated
// under every plan the engine offers, {CaQ, QaC, QaC+}. Every plan must
// produce byte-identical output to the baseline, CaQ's, except across a
// known split (knownSplits). Run under -race (make test-diffharness) the
// harness also shakes out data races on the read path.

// harnessModes mirrors evalbench.Modes without depending on it.
var harnessModes = []xcql.Mode{xcql.CaQ, xcql.QaC, xcql.QaCPlus}

// harnessProfiles is the store-mutation grid applied per seed.
func harnessProfiles(seed int64) []genstore.Profile {
	return []genstore.Profile{
		{Seed: seed},
		{Seed: seed, Reorder: true},
		{Seed: seed, Reorder: true, Duplicates: true},
		{Seed: seed, Drops: true},
		{Seed: seed, Reorder: true, Duplicates: true, Drops: true, Scan: seed%2 == 0},
		{Seed: seed, Reannounce: true},
		{Seed: seed, Reannounce: true, Duplicates: true, Drops: true, Scan: seed%2 == 1},
	}
}

// planSplit says how the plans are known to part on one harness cell;
// zero, the rule: they do not.
type planSplit int

const (
	// caqApart: CaQ's temporal view hangs a child under the first parent
	// version that announces it, and only there, while QaC and QaC+ cross
	// the holes of whichever version they hold. A parent with several
	// versions therefore carries its children once under CaQ and once per
	// version under the fragment plans (bench/README finding 3).
	caqApart planSplit = iota + 1
	// indexAhead: a filler that arrives before the parent version
	// announcing it is an orphan QaC+ already serves (it jumps to its
	// tag) and CaQ and QaC cannot reach yet, so QaC+'s per-arrival deltas
	// run ahead until the parent arrives. The final results agree.
	indexAhead
	// rootApart: the stream's root element is a snapshot element under
	// CaQ, bare, and the root filler's one version under QaC and QaC+,
	// stamped with its lifespan; all below the root agrees. No generated
	// query returns the root element, so no cell of knownSplits holds
	// it: rootSplit reproduces it.
	rootApart
)

// rootSplit is rootApart's reproducer: stream("s")/<root> on this
// history, at each of its instants.
var rootSplit = genstore.Profile{Seed: 1}

// knownSplits names, by instance and bound tag, the cells outside the
// re-announcing profiles where the plans disagree. There, seeds 1–3
// generate histories of one to four fragments; seed 4 is the first where a
// parent has several versions and children, and the first with orphans —
// and the harnesses reach it since PR 14. Both disagreements are open in ROADMAP ("Open plan
// disagreements"): an entry goes when its cell agrees.
var knownSplits = map[string]planSplit{
	"seed=4,drop/entry2":                  caqApart,
	"seed=4,reorder,dup,drop,scan/entry2": caqApart,
	"seed=4,reorder/entry3":               indexAhead,
	"seed=4,reorder,dup/entry3":           indexAhead,
	"seed=4,reorder,dup,drop,scan/batch4": indexAhead,
}

// splitOf looks one cell up. Every parent of a re-announcing profile has
// several versions, so CaQ is apart on all of it: the one exclusion by
// rule. A query is named kind-tag.
func splitOf(p genstore.Profile, q genstore.Query) planSplit {
	if p.Reannounce {
		return caqApart
	}
	return knownSplits[p.String()+"/"+q.Name[strings.LastIndexByte(q.Name, '-')+1:]]
}

// baselineGroup names the results of one cell that must be byte-identical:
// all of them, whatever the plan, except across a known split. Within a
// group, full and incremental evaluations still agree.
func (sp planSplit) baselineGroup(mode xcql.Mode) string {
	switch {
	case (sp == caqApart || sp == rootApart) && mode == xcql.CaQ:
		return "CaQ"
	case sp == indexAhead && mode == xcql.QaCPlus:
		return "QaC+"
	}
	return "every plan"
}

// TestDiffHarness is the headline test: at least 200 generated
// store/query pairs, each evaluated at three instants under every plan,
// over at least four seeds (two under -short): seed 1 alone holds the
// pairs, and seed 4 is the first whose parents have several versions and
// children — where a child step's positions count per parent.
func TestDiffHarness(t *testing.T) {
	minPairs, minSeeds := 200, int64(4)
	if testing.Short() {
		minPairs, minSeeds = 40, 2
	}
	pairs := 0
	for seed := int64(1); pairs < minPairs || seed <= minSeeds; seed++ {
		if seed > 100 {
			t.Fatalf("generator exhausted 100 seeds with only %d pairs", pairs)
		}
		// a seed's whole grid: the pair count is reached within the first
		// few instances, and the re-announcing profiles sit at its end
		for _, p := range harnessProfiles(seed) {
			pairs += runInstance(t, p)
		}
	}
	t.Logf("verified %d store/query pairs", pairs)
}

// TestRootSplitReproduces: rootSplit parts the plans as rootApart's
// baseline groups say, and by the root's own stamps alone. When the plans
// agree on it, rootApart, rootSplit and this test go (ROADMAP item 2).
func TestRootSplitReproduces(t *testing.T) {
	ins, err := genstore.Generate(rootSplit)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ins.NewStore()
	if err != nil {
		t.Fatal(err)
	}
	e := xcql.NewEngine()
	e.RegisterStore("s", st)
	src := `stream("s")/` + ins.Structure.Root.Name
	// the root filler's one version, valid from Base on
	stamps := fmt.Sprintf(` vtFrom="%s" vtTo="now"`, genstore.Base.Format(xtime.Layout))
	for _, at := range ins.Instants {
		got := make(map[string]string)
		for _, mode := range harnessModes {
			q, err := e.Compile(src, mode)
			if err != nil {
				t.Fatalf("%s: %s under %s: %v", rootSplit, src, mode, err)
			}
			seq, err := q.Eval(at)
			if err != nil {
				t.Fatalf("%s: %s under %s at %v: %v", rootSplit, src, mode, at, err)
			}
			out := xcql.FormatSequence(seq)
			group := rootApart.baselineGroup(mode)
			if prev, ok := got[group]; ok && prev != out {
				t.Fatalf("%s at %v: %s diverged within %q\n%s\nagainst\n%s", rootSplit, at, mode, group, out, prev)
			}
			got[group] = out
		}
		caq, rest := got[rootApart.baselineGroup(xcql.CaQ)], got[rootApart.baselineGroup(xcql.QaC)]
		if caq == rest {
			t.Fatalf("%s at %v: every plan returns the same root for %s: the split is gone, so rootApart, rootSplit and this test go", rootSplit, at, src)
		}
		if bare := strings.Replace(rest, stamps, "", 1); bare != caq {
			t.Fatalf("%s at %v: the plans part on more than the root's stamps for %s\nCaQ:\n%s\nQaC and QaC+:\n%s", rootSplit, at, src, caq, rest)
		}
	}
}

// snapshotTwin reproduces the version-boundary split (ROADMAP item 2): a
// superseded version's lifespan is closed at its successor's vtFrom, so
// at the instant an account is re-announced a snapshot holds both its
// versions. The history is the credit stream a publisher sends, twenty
// accounts charged round robin, snapshotTwin.charges of them
// snapshotTwin.every apart: the last charge re-announces an account at
// 2003-11-01T01:00:00Z.
var snapshotTwin = struct {
	charges int
	every   time.Duration
}{360, 10 * time.Second}

// TestSnapshotTwinReproduces: at snapshotTwin's last re-announcement
// count(stream("credit")//account?[now]) is 21 for twenty accounts under
// every plan, the re-announced account twice, and 20 one second later.
// When item 2 (b) picks the boundary rule the 21 goes, and with it
// snapshotTwin and this test; the law that holds off the boundaries is
// TestSnapshotUniquenessLaw (internal/xcql).
func TestSnapshotTwinReproduces(t *testing.T) {
	const src = `count(stream("credit")//account?[now])`
	cs := newCreditStanding(t, src, snapshotTwin.charges, snapshotTwin.every)
	if want := time.Date(2003, time.November, 1, 1, 0, 0, 0, time.UTC); !cs.at.Equal(want) {
		t.Fatalf("the last charge is at %v, want %v", cs.at, want)
	}
	e := xcql.NewEngine()
	e.RegisterStore("credit", cs.st)
	for _, c := range []struct {
		at   time.Time
		want string
	}{{cs.at, "21"}, {cs.at.Add(time.Second), "20"}} {
		for _, mode := range harnessModes {
			q, err := e.Compile(src, mode)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := q.Eval(c.at)
			if err != nil {
				t.Fatal(err)
			}
			if got := xcql.FormatSequence(seq); got != c.want {
				t.Fatalf("%s under %s at %s is %s, want %s: the boundary rule changed, so snapshotTwin and this test go (ROADMAP item 2)",
					src, mode, c.at.Format(xtime.Layout), got, c.want)
			}
		}
	}
}

// TestDecodedStoreMatchesInMemory: a store of fragments decoded from their
// wire form answers every query under every plan byte for byte as the
// store of the same fragments built in memory does, at every instant —
// whether each was decoded from its full form, from the frame a server
// seals it in (a re-announcement a delta frame over the version before,
// its tree built over that one's), or replayed from a segment store those
// frames were written through to and snapshotted half-way. The grid is the
// harness's histories of its first four seeds, every profile,
// re-announcing ones included, plus a credit stream re-announcing each
// account once per charge, with queries that land next to the holes: a
// version's every child, every element of the stream, and a child count
// per version.
func TestDecodedStoreMatchesInMemory(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, p := range harnessProfiles(seed) {
			ins, err := genstore.Generate(p)
			if err != nil {
				t.Fatalf("%s: generate: %v", p, err)
			}
			queries := append([]genstore.Query{{Name: "every-element", Src: `stream("s")//*`}}, ins.Queries...)
			for _, tag := range ins.Structure.Tags() {
				if tag.IsFragmented() {
					queries = append(queries, genstore.Query{Name: "children-" + tag.Name,
						Src: fmt.Sprintf(`for $a in stream("s")//%s return $a/*`, tag.Name)})
				}
			}
			compareDecoded(t, p.String(), ins.Structure, ins.Fragments, p.Scan, queries, ins.Instants)
		}
	}
	pub, frags := genstore.NewCreditPublisher(3)
	var instants []time.Time
	for i := 1; i <= 24; i++ {
		at := genstore.CreditBase.Add(time.Duration(i) * time.Hour)
		announce, tx := pub.Charge(i%3, 10*i, at)
		frags = append(frags, announce, tx)
		if i%6 == 0 {
			instants = append(instants, at, at.Add(time.Minute))
		}
	}
	compareDecoded(t, "credit", tagstruct.MustParseString(genstore.CreditStructure), frags, false, []genstore.Query{
		{Name: "children", Src: `for $a in stream("s")//account return $a/*`},
		{Name: "every-element", Src: `stream("s")//*`},
		{Name: "customers", Src: `count(stream("s")//account/customer)`},
		{Name: "customers-per-version", Src: `for $a in stream("s")//account return count($a/customer)`},
		{Name: "charges-per-version", Src: `for $a in stream("s")//account return count($a/transaction)`},
	}, instants)
}

// compareDecoded evaluates queries at instants under every plan over the
// stores of frags — the fragments themselves, and the decoded ones
// (decodedStores) — and fails on the first result that differs.
func compareDecoded(t *testing.T, label string, s *tagstruct.Structure, frags []*fragment.Fragment, scan bool, queries []genstore.Query, instants []time.Time) {
	t.Helper()
	inMemory := fragment.NewStore(s)
	if scan {
		inMemory = fragment.NewScanStore(s)
	}
	if err := inMemory.AddAll(frags); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	names, stores := decodedStores(t, label, s, frags, scan)
	engines := make([]*xcql.Engine, 1+len(stores))
	for i, st := range append([]*fragment.Store{inMemory}, stores...) {
		engines[i] = xcql.NewEngine()
		engines[i].RegisterStore("s", st)
	}
	for _, query := range queries {
		for _, mode := range harnessModes {
			for _, at := range instants {
				results := make([]string, len(engines))
				for i, e := range engines {
					q, err := e.Compile(query.Src, mode)
					if err != nil {
						t.Fatalf("%s/%s/%s: compile: %v", label, query.Name, mode, err)
					}
					seq, err := q.Eval(at)
					if err != nil {
						t.Fatalf("%s/%s/%s at=%v: eval: %v", label, query.Name, mode, at, err)
					}
					results[i] = xcql.FormatSequence(seq)
					if i > 0 && results[i] != results[0] {
						t.Fatalf("%s/%s/%s at=%v: the %s store diverged\nin memory:\n%s\ndecoded:\n%s",
							label, query.Name, mode, at, names[i-1], harnessTruncate(results[0]), harnessTruncate(results[i]))
					}
				}
			}
		}
	}
}

// decodedStores returns the stores a client builds of frags, and their
// names: "parsed", each fragment parsed from its full form; "sealed", each
// decoded, as a connection's read loop decodes it, from the frame a server
// publishing frags seals it in — over the filler's version before it, a
// delta frame where it can be one —; and, unless frags holds a fragment
// twice, "recovered", those frames as a segment store they were written
// through to — snapshotted half-way — replays them after a reopen. A
// fragment frags holds twice (a duplicate delivery) is published and
// decoded once, so that every store holds it twice as one object.
func decodedStores(t *testing.T, label string, s *tagstruct.Structure, frags []*fragment.Fragment, scan bool) ([]string, []*fragment.Store) {
	t.Helper()
	newStore := func() *fragment.Store {
		if scan {
			return fragment.NewScanStore(s)
		}
		return fragment.NewStore(s)
	}
	dir := t.TempDir()
	seg, _, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	log := &captureLog{Store: seg}
	srv := stream.NewServer("s", s)
	defer srv.Close()
	srv.AttachDurable(log)
	parsed, sealed := newStore(), newStore()
	decoded := map[*fragment.Fragment][2]*fragment.Fragment{}
	var dec xmldom.Decoder
	twice := false
	for i, f := range frags {
		d, ok := decoded[f]
		if ok {
			twice = true
		} else {
			if d[0], err = fragment.Parse(f.String()); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			srv.Publish(f)
			if d[1], err = decodeFrame(&dec, []byte(log.frames[len(log.frames)-1])); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			decoded[f] = d
		}
		if err := parsed.Add(d[0]); err != nil {
			t.Fatalf("%s: parsed: %v", label, err)
		}
		if err := sealed.Add(d[1]); err != nil {
			t.Fatalf("%s: sealed: %v", label, err)
		}
		if i == len(frags)/2 {
			if _, err := seg.Snapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
	if twice {
		return []string{"parsed", "sealed"}, []*fragment.Store{parsed, sealed}
	}
	seg, rep, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil || rep.Degraded != "" {
		t.Fatalf("%s: reopening the segment store: %v %v", label, err, rep)
	}
	defer seg.Close()
	replayed, err := seg.All()
	if err != nil {
		t.Fatal(err)
	}
	recovered := newStore()
	if err := recovered.AddAll(replayed); err != nil {
		t.Fatalf("%s: recovered: %v", label, err)
	}
	return []string{"parsed", "sealed", "recovered"}, []*fragment.Store{parsed, sealed, recovered}
}

// runInstance evaluates one generated history under every plan and
// returns how many store/query pairs it contributed.
func runInstance(t *testing.T, p genstore.Profile) int {
	t.Helper()
	ins, err := genstore.Generate(p)
	if err != nil {
		t.Fatalf("%s: generate: %v", p, err)
	}
	st, err := ins.NewStore()
	if err != nil {
		t.Fatalf("%s: store: %v", p, err)
	}
	// the immutability guard: no cell of the grid may write a stored node
	prints := fingerprintPayloads(ins.Fragments)
	defer func() { checkPayloads(t, prints, p.String()) }()
	e := xcql.NewEngine()
	e.RegisterStore("s", st)
	for _, query := range ins.Queries {
		for _, at := range ins.Instants {
			baselines := make(map[string]string)
			for _, mode := range harnessModes {
				q, err := e.Compile(query.Src, mode)
				if err != nil {
					t.Fatalf("%s/%s/%s: compile: %v", p, query.Name, mode, err)
				}
				seq, err := q.Eval(at)
				if err != nil {
					t.Fatalf("%s/%s/%s at=%v: eval: %v", p, query.Name, mode, at, err)
				}
				got := xcql.FormatSequence(seq)
				group := splitOf(p, query).baselineGroup(mode)
				baseline, ok := baselines[group]
				if !ok {
					baselines[group] = got
					continue
				}
				if got != baseline {
					t.Fatalf("%s/%s at=%v: %s diverged from baseline\nbaseline:\n%s\ngot:\n%s",
						p, query.Name, at, mode, harnessTruncate(baseline), harnessTruncate(got))
				}
			}
		}
	}
	return len(ins.Queries)
}

func harnessTruncate(s string) string {
	const max = 600
	if len(s) > max {
		return fmt.Sprintf("%s… (%d bytes)", s[:max], len(s))
	}
	return s
}
