package main

import (
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
	logged := fragment.NewStore(s)
	seg, err := attachSegStore(logged, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := logged.AddAll(frags); err != nil {
		t.Fatal(err)
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
	if seg, err = attachSegStore(store, dir); err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	if store.Len() != len(frags) || store.Generation() != uint64(len(frags)) {
		t.Fatalf("recovered %d fragments at generation %d, want %d at %d", store.Len(), store.Generation(), len(frags), len(frags))
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
