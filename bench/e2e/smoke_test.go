package main

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// smokeSpec is ingest-fanout's shape at a size the self-tests can afford.
var smokeSpec = &streamSpec{
	name: "smoke", accounts: 5, step: time.Second, size: 200, pacedSize: 200, paceShare: 0.25, restart: true,
	regs: []regSpec{
		{query: queryPassThrough, mode: "QaC+", ws: true},
		{query: queryPassThrough, mode: "QaC+"},
		{query: queryPassThrough, mode: "QaC++", ws: true},
		{query: queryPassThrough, mode: "QaC++"},
		{query: queryFilter, mode: "QaC+"},
	},
}

// The whole streaming path, end to end and small: every phase delivers
// every delta, the standing results equal the reference, the restart
// comes back with the full history, and nothing is left running.
func TestStreamingPipelineSmoke(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	c := newChecker()
	const events = 40

	p, _, err := setUp(smokeSpec, 1, events, false)
	if err != nil {
		t.Fatal(err)
	}
	before := p.faults()
	sat := p.saturate()
	dir, in := p.dir, p.in
	defer os.RemoveAll(dir)
	if err := p.finish(c, "saturate", &sat, before, true); err != nil {
		t.Fatal(err)
	}
	if !sat.drained || sat.standingItems == 0 || sat.diskBytes == 0 {
		t.Errorf("saturate: drained=%v standing items=%d disk bytes=%d", sat.drained, sat.standingItems, sat.diskBytes)
	}

	if _, err := restartReady(smokeSpec, in, dir); err != nil {
		t.Errorf("restart: %v", err)
	}

	p, _, err = setUp(smokeSpec, 1, events, true)
	if err != nil {
		t.Fatal(err)
	}
	before = p.faults()
	pac := p.paced(200)
	spans := p.spansOfPhase()
	interior := interiorOf(p.rec, p.epoch)
	if err := p.finish(c, "paced", &pac, before, false); err != nil {
		t.Fatal(err)
	}
	if want := 2 * 2 * events; len(pac.latencyMs) != want {
		t.Errorf("paced: %d latency samples, want %d (two frames per event per subscriber)", len(pac.latencyMs), want)
	}
	roots := 0
	for _, s := range spans {
		if s.End < s.Start {
			t.Fatalf("span %s of op %d ends before it starts", s.Name, s.Op)
		}
		if s.Parent < 0 {
			roots++
		}
	}
	if roots != events || len(interior) == 0 {
		t.Errorf("traced phase: %d root spans (want %d), %d interior spans", roots, events, len(interior))
	}

	if !c.correct() || c.attempted != 2*events {
		t.Errorf("check: %s", c.summary())
	}
	if leaked := awaitGoroutines(goroutines); leaked > 0 {
		t.Errorf("%d goroutines outlived the pipelines", leaked)
	}
}

// Both ad-hoc workloads, briefly: every response checks out, the trickle
// is written between the reads, and the final round equals the reference.
func TestAdhocRigSmoke(t *testing.T) {
	goroutines := runtime.NumGoroutine()
	for _, name := range []string{"adhoc-history", "adhoc-under-ingest"} {
		c := newChecker()
		r, err := newAdhocRig(adhocSpecs[name], 1, 1, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		epoch := time.Now()
		ph, err := r.measure(c, 300*time.Millisecond)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		spans := spansOfRequests(epoch, ph, r.handlers, r.sink.snapshot())
		if err := r.close(); err != nil {
			t.Errorf("%s: close: %v", name, err)
		}
		if !c.correct() || ph.requests == 0 {
			t.Errorf("%s: %d requests, check: %s", name, ph.requests, c.summary())
		}
		if name == "adhoc-under-ingest" && (ph.published != 30 || ph.requests != 60) {
			t.Errorf("%s: %d trickle fragments between %d requests, want 30 between 60", name, ph.published, ph.requests)
		}
		names := map[string]int{}
		for _, s := range spans {
			names[s.Name]++
		}
		for _, want := range []string{"loadgen.request", "api.eval", "xcql.compile", "xcql.eval", "xcql.execute"} {
			if names[want] < ph.requests {
				t.Errorf("%s: %d %s spans for %d requests", name, names[want], want, ph.requests)
			}
		}
	}
	if leaked := awaitGoroutines(goroutines); leaked > 0 {
		t.Errorf("%d goroutines outlived the rigs", leaked)
	}
}
