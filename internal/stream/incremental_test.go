package stream

import (
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/registry"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// TestIncrementalInvalidatedOnGap mirrors
// TestContinuousQueryInvalidatedOnGap for the incremental path: a lost
// sequence number invalidates the query, the next arrival triggers a
// reseed that rebuilds the engine state from the store and re-emits the
// ENTIRE standing result (not just the new fragment's contribution),
// and the result carries the degradation.
func TestIncrementalInvalidatedOnGap(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event where $e/value > 40 return $e/value`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []Result
	cq := NewContinuousQuery(q, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	cq.WithIncremental(true)
	cq.Attach(c)

	c.Apply(rootFragment().WithSeq(1))
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "41").WithSeq(2))
	// seq 3 is lost; 4 arrives and invalidates the query
	c.Apply(eventFragment(3, "2003-01-04T00:00:00", "55").WithSeq(4))

	mu.Lock()
	if len(results) != 3 {
		t.Fatalf("evaluations = %d", len(results))
	}
	if results[1].Degraded != "" {
		t.Fatal("pre-gap result marked degraded")
	}
	if got := strings.Join(xq.Strings(results[1].Delta), ","); got != "41" {
		t.Fatalf("pre-gap delta = %q", got)
	}
	last := results[2]
	if last.Degraded == "" {
		t.Fatal("post-gap result not marked degraded")
	}
	// the reseed re-emitted everything visible, exactly like full mode's
	// reset delta map — the consumer can rebuild its world from this one
	// result instead of silently missing the pre-gap items
	if strings.Join(xq.Strings(last.Delta), ",") != "41,55" {
		t.Fatalf("post-gap delta = %v", xq.Strings(last.Delta))
	}
	mu.Unlock()
	// the standing snapshot agrees with a from-scratch evaluation
	if got := strings.Join(xq.Strings(cq.ItemsSnapshot()), ","); got != "41,55" {
		t.Fatalf("snapshot after reseed = %q", got)
	}
	// consumers can re-arm after handling the degradation; a fragment-less
	// re-evaluation stays clean and emits nothing new
	cq.ClearDegraded()
	if err := cq.Evaluate(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	got := results[len(results)-1]
	if got.Degraded != "" || len(got.Delta) != 0 {
		t.Fatalf("post-clear result = degraded %q delta %v", got.Degraded, xq.Strings(got.Delta))
	}
}

// TestIncrementalChaosNeverNarrows replays seeded transport chaos (drops,
// duplicates, reorders, mid-frame resets) against an incremental
// continuous query. The invariants under fire: gaps surface as Degraded
// results (never silently), everything in the final standing snapshot
// was emitted as a delta at some point, and once the client converges
// the snapshot equals the fault-free evaluation — the gap/reseed cycle
// must not have narrowed the result.
func TestIncrementalChaosNeverNarrows(t *testing.T) {
	const events = 30
	traffic := chaosTraffic(events)

	baseline := NewClient("sensors", sensorStructure(t))
	for _, f := range traffic {
		baseline.Apply(f)
	}
	want := evalOver(t, baseline.Store())
	if len(want) == 0 {
		t.Fatal("baseline query selected nothing; the comparison would be vacuous")
	}

	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	fi := NewFaultInjector(FaultPlan{
		Seed:        42,
		DropProb:    0.15,
		DupProb:     0.10,
		ReorderProb: 0.10,
		ResetEvery:  9,
	})
	addr := startFaultyServer(t, s, ServeOptions{Faults: fi})

	s.Publish(traffic[0])
	c, err := Dial(addr, testDialOptions(42))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var mu sync.Mutex
	sawDegraded := false
	emitted := map[string]bool{}
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	cq := NewContinuousQuery(rt.MustCompile(chaosQuery, xcql.QaCPlus), func(r Result) {
		mu.Lock()
		if r.Degraded != "" {
			sawDegraded = true
		}
		for _, s := range xq.Strings(r.Delta) {
			emitted[s] = true
		}
		mu.Unlock()
	})
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	cq.WithIncremental(true)
	cq.Attach(c)

	for _, f := range traffic[1:] {
		before := fi.Stats().Frames
		s.Publish(f)
		waitFor(t, 50*time.Millisecond, func() bool { return fi.Stats().Frames > before })
	}
	s.Close()
	converged := waitFor(t, 15*time.Second, func() bool {
		st := c.Stats()
		return c.Store().Len() == len(traffic) && st.Missing == 0
	})
	st := c.Stats()
	t.Logf("converged=%v store=%d/%d stats=%+v injector=%v strategy=%q",
		converged, c.Store().Len(), len(traffic), st, fi, cq.IncrementalStrategy())
	if fs := fi.Stats(); fs.Dropped < 1 || fs.Resets < 1 {
		t.Fatalf("chaos run was too gentle: %v", fi)
	}

	mu.Lock()
	defer mu.Unlock()
	if st.Gaps > 0 && !sawDegraded {
		t.Fatal("gaps were detected but no incremental result was marked degraded")
	}
	snapshot := xq.Strings(cq.ItemsSnapshot())
	for _, item := range snapshot {
		if !emitted[item] {
			t.Fatalf("standing item %q never emitted as a delta", item)
		}
	}
	if converged {
		if got := strings.Join(snapshot, ","); got != strings.Join(want, ",") {
			t.Fatalf("incremental snapshot narrowed after chaos:\n got %v\nwant %v", snapshot, want)
		}
	} else if _, degraded := c.Degraded(); !degraded {
		t.Fatalf("silent divergence: store %d/%d, stats %+v", c.Store().Len(), len(traffic), st)
	}
}

const stateWire = `<stream:structure>
<tag type="snapshot" id="1" name="root">
  <tag type="temporal" id="2" name="state"/>
</tag>
</stream:structure>`

// TestDeltaMemoryBounded pins the fix for the unbounded seen map: delta
// state is scoped to the current result generation, so a long-lived
// query whose STANDING result stays small must not accumulate memory
// proportional to everything it ever emitted. A version projection
// #[last,last] keeps exactly one standing item while the history grows
// 60 versions deep; the buffer high-water mark must stay at one item,
// not sixty. The state is the registration's, so the bound is pinned on a
// bare registry.Registration (the numbers GET /v1/registryz reports) as
// well as through the ContinuousQuery facade.
func TestDeltaMemoryBounded(t *testing.T) {
	for _, c := range []struct {
		name                string
		facade, incremental bool
	}{
		{"facade/full", true, false}, {"facade/incremental", true, true},
		{"registration/full", false, false}, {"registration/incremental", false, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			structure, err := tagstruct.ParseString(stateWire)
			if err != nil {
				t.Fatal(err)
			}
			st := fragment.NewStore(structure)
			rt := xcql.NewRuntime()
			rt.RegisterStream("st", st)
			q := rt.MustCompile(`for $x in stream("st")//state#[last,last] return $x`, xcql.QaCPlus)

			var deltas int
			var at time.Time
			clock := func() time.Time { return at }
			onResult := func(r Result) { deltas += len(r.Delta) }
			// the subject: how an arrival is evaluated, and where the two
			// buffer numbers are read
			var evaluate func(*fragment.Fragment)
			var bufferBytes, bufferHWM func() int64
			if c.facade {
				cq := NewContinuousQuery(q, onResult).WithIncremental(c.incremental)
				cq.Clock = clock
				evaluate = func(f *fragment.Fragment) {
					t.Helper()
					if err := cq.EvaluateFragment(f); err != nil {
						t.Fatal(err)
					}
				}
				bufferBytes, bufferHWM = cq.BufferBytes, cq.BufferHWMBytes
			} else {
				r := registry.New(clock)
				reg, err := r.Register(q, registry.Options{Incremental: c.incremental, OnResult: onResult})
				if err != nil {
					t.Fatal(err)
				}
				evaluate = r.Apply
				bufferBytes = func() int64 { return reg.Stats().BufferBytes }
				bufferHWM = func() int64 { return reg.Stats().BufferHWMBytes }
			}

			apply := func(f *fragment.Fragment) {
				t.Helper()
				if err := st.Add(f); err != nil {
					t.Fatal(err)
				}
				if f.ValidTime.After(at) {
					at = f.ValidTime
				}
				evaluate(f)
			}

			apply(fragment.New(fragment.RootFillerID, 1, ts("2003-01-01T00:00:00"),
				xmldom.MustParseString(`<root><hole id="1" tsid="2"/></root>`).Root()))
			const versions = 60
			var totalEmitted int64
			for i := 0; i < versions; i++ {
				vt := ts("2003-01-01T00:00:00").Add(time.Duration(i+1) * time.Hour)
				apply(fragment.New(1, 2, vt,
					xmldom.MustParseString(`<state>v`+itoa(100+i)+`</state>`).Root()))
				totalEmitted += bufferBytes()
			}
			// every new version replaced the previous one in the standing
			// result — so it was emitted as a delta...
			if deltas < versions {
				t.Fatalf("deltas = %d, want >= %d (each version should emit)", deltas, versions)
			}
			// ...but the delta memory tracks the standing result, not the
			// emission history: the high-water mark is one item's worth,
			// far below the 60 items' worth the old unbounded map kept
			if hwm := bufferHWM(); hwm == 0 || hwm > totalEmitted/10 {
				t.Fatalf("buffer HWM = %d bytes after emitting %d bytes total; delta state is not generation-scoped",
					hwm, totalEmitted)
			}
		})
	}
}
