package main

import (
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/registry"
	"xcql/internal/xmark"
)

func TestCheckFlags(t *testing.T) {
	cases := []struct {
		name                       string
		structure, storeDir        string
		incremental, trace, tracez bool
		wantErr                    string // "" = accepted
	}{
		{name: "one-shot", structure: "s.xml"},
		{name: "one-shot trace", structure: "s.xml", trace: true},
		{name: "incremental tracez", structure: "s.xml", incremental: true, tracez: true},
		{name: "store-dir without structure", storeDir: "d", wantErr: "-store-dir"},
		{name: "incremental without structure", incremental: true, wantErr: "-incremental needs -structure"},
		{name: "tracez without incremental", structure: "s.xml", tracez: true, wantErr: "-tracez needs -incremental"},
		// an incremental replay never prints the one-shot timeline, so
		// -trace would only fill the span ring
		{name: "trace with incremental", structure: "s.xml", incremental: true, trace: true, wantErr: "-tracez"},
	}
	for _, c := range cases {
		err := checkFlags(c.structure, c.storeDir, c.incremental, c.trace, c.tracez)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.wantErr != "" && err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.wantErr != "" && !strings.Contains(err.Error(), c.wantErr):
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestRecoveryReachesTheStandingQuery: attachSegStore ingests what the log
// recovered through Add, so a standing query seeded before the recovery
// sees the fragments stored behind its back on its next clock-only
// evaluation, and answers what a one-shot evaluation of the recovered
// store answers.
func TestRecoveryReachesTheStandingQuery(t *testing.T) {
	s, frags, _ := xmark.GenerateFragments(xmark.Config{Scale: 0.002, Seed: 1})
	dir := t.TempDir()
	seg, fresh, ingest, err := attachSegStore(fragment.NewStore(s), dir, frags)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fresh {
		if err := ingest(f); err != nil {
			t.Fatal(err)
		}
	}
	seg.Close()

	store := fragment.NewStore(s)
	engine := xcql.NewEngine()
	engine.RegisterStore("auction", store)
	q := engine.MustCompile(`stream("auction")//closed_auction/price`, xcql.QaCPlus)
	at := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	r := registry.New(func() time.Time { return at })
	reg, err := r.Register(q, registry.Options{OnResult: func(res registry.Result) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	r.Evaluate()
	if seg, fresh, _, err = attachSegStore(store, dir, frags); err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if store.Len() != len(frags) || len(fresh) != 0 {
		t.Fatalf("recovered %d fragments and found %d new, want %d and none", store.Len(), len(fresh), len(frags))
	}
	r.Evaluate()
	want, err := q.Eval(at)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("test setup broken: the recovered store answers nothing")
	}
	if got := reg.ItemsSnapshot(); xcql.FormatSequence(got) != xcql.FormatSequence(want) {
		t.Fatalf("standing result after recovery has %d items, one-shot %d", len(got), len(want))
	}
}

// TestRerunLogsNothingTwice: three runs over one directory and one file
// leave the log holding the file's fragments once, and each run's store
// holds each fragment once: the first run logs them all, the later ones
// recover them and find nothing new. A fragment the store refuses is not
// logged.
func TestRerunLogsNothingTwice(t *testing.T) {
	s, frags, _ := xmark.GenerateFragments(xmark.Config{Scale: 0.002, Seed: 1})
	want := make(map[string]int)
	for _, f := range frags {
		want[logKey(f)]++
	}
	dir := t.TempDir()
	for run := 1; run <= 3; run++ {
		store := fragment.NewStore(s)
		seg, fresh, ingest, err := attachSegStore(store, dir, frags)
		if err != nil {
			t.Fatal(err)
		}
		if run > 1 && len(fresh) != 0 {
			t.Fatalf("run %d: %d fragments of the logged file are new", run, len(fresh))
		}
		for _, f := range fresh {
			if err := ingest(f); err != nil {
				t.Fatal(err)
			}
		}
		bad := fragment.New(frags[1].FillerID, 999, frags[1].ValidTime, frags[1].Tree())
		if err := ingest(bad); err == nil {
			t.Fatalf("run %d: a fragment of an unknown tsid was ingested", run)
		}
		if store.Len() != len(frags) {
			t.Fatalf("run %d: store holds %d fragments, the file %d", run, store.Len(), len(frags))
		}
		seg.Close()

		again, _, err := xcql.OpenSegStore(dir, xcql.SegStoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		logged, err := again.All()
		again.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[string]int)
		for _, f := range logged {
			got[logKey(f)]++
		}
		if len(logged) != len(frags) || !maps.Equal(got, want) {
			t.Fatalf("run %d: the log holds %d frames (%d distinct), the file %d fragments (%d distinct)",
				run, len(logged), len(got), len(frags), len(want))
		}
	}
}

// TestOneShotLogsInOneBatch: a one-shot run stores the file's new
// fragments and logs them with one fsync, not one per fragment; a
// fragment the store refuses stops the run unlogged, and what was stored
// before it is logged.
func TestOneShotLogsInOneBatch(t *testing.T) {
	s, frags, _ := xmark.GenerateFragments(xmark.Config{Scale: 0.002, Seed: 1})
	dir := t.TempDir()
	store := fragment.NewStore(s)
	seg, fresh, _, err := attachSegStore(store, dir, frags)
	if err != nil {
		t.Fatal(err)
	}
	before := seg.Stats().Fsyncs
	bad := fragment.New(frags[1].FillerID, 999, frags[1].ValidTime, frags[1].Tree())
	withBad := append(append(slices.Clip(fresh[:len(fresh)-1]), bad), fresh[len(fresh)-1])
	if err := storeAndLog(store, seg, withBad); err == nil {
		t.Fatal("a fragment of an unknown tsid was stored")
	}
	// one segment created (a directory sync) and one batch
	if got := seg.Stats().Fsyncs - before; got > 2 {
		t.Fatalf("logging %d fragments took %d fsyncs", len(fresh)-1, got)
	}
	if err := storeAndLog(store, seg, fresh[len(fresh)-1:]); err != nil {
		t.Fatal(err)
	}
	seg.Close()

	again, _, err := xcql.OpenSegStore(dir, xcql.SegStoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	logged, err := again.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(logged) != len(frags) || store.Len() != len(frags) {
		t.Fatalf("the log holds %d frames and the store %d fragments, the file %d", len(logged), store.Len(), len(frags))
	}
	for i, f := range logged {
		if f.Seq != uint64(i+1) || logKey(f) != logKey(frags[i]) {
			t.Fatalf("frame %d is seq %d %s, want seq %d %s", i, f.Seq, logKey(f), i+1, logKey(frags[i]))
		}
	}
}
