package main

import (
	"bufio"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: xcql
BenchmarkFigure4/Q1/sf=0.005/QaC+-8   	     100	    110705 ns/op	  24072 B/op	     503 allocs/op	  193 fillers/op	  2 holes/op
BenchmarkFigure4/Q1/sf=0.005/CaQ-8    	      10	   9107050 ns/op	 240720 B/op	    5030 allocs/op
BenchmarkSelectivity/price>=40/QaC-8  	      50	    220000 ns/op
PASS
ok  	xcql	1.234s
`

func TestParse(t *testing.T) {
	recs, err := parse(bufio.NewScanner(strings.NewReader(sample)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	r := recs[0]
	if r.Name != "Figure4/Q1/sf=0.005/QaC+" {
		t.Errorf("Name = %q", r.Name)
	}
	if r.Bench != "Figure4" || r.Query != "Q1" || r.Plan != "QaC+" {
		t.Errorf("dissect = %q/%q/%q", r.Bench, r.Query, r.Plan)
	}
	if r.Scale == nil || *r.Scale != 0.005 {
		t.Errorf("Scale = %v", r.Scale)
	}
	if r.Iterations != 100 || r.NsPerOp != 110705 {
		t.Errorf("iters/ns = %d/%v", r.Iterations, r.NsPerOp)
	}
	if r.Metrics["fillers/op"] != 193 || r.Metrics["holes/op"] != 2 {
		t.Errorf("cost metrics = %v", r.Metrics)
	}
	if recs[1].Plan != "CaQ" {
		t.Errorf("rec1 plan = %q", recs[1].Plan)
	}
	if recs[2].Bench != "Selectivity" || recs[2].Plan != "QaC" || recs[2].Query != "" {
		t.Errorf("rec2 = %+v", recs[2])
	}
}

// Histogram quantile metrics reported via b.ReportMetric — e.g. the
// per-eval latency quantiles BenchmarkContinuous emits — are ordinary
// `value unit` pairs and must land in Metrics untouched.
func TestParseQuantileMetrics(t *testing.T) {
	const quantiles = `BenchmarkContinuous/events=100/QaC+-8   	     200	    510705 ns/op	  480000 p50-ns	  900000 p90-ns	 1200000 p99-ns
PASS
`
	recs, err := parse(bufio.NewScanner(strings.NewReader(quantiles)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Metrics["p50-ns"] != 480000 || r.Metrics["p90-ns"] != 900000 || r.Metrics["p99-ns"] != 1200000 {
		t.Errorf("quantile metrics = %v", r.Metrics)
	}
	if r.NsPerOp != 510705 {
		t.Errorf("ns/op = %v", r.NsPerOp)
	}
}

func TestDiffTable(t *testing.T) {
	oldRecs := []Record{
		{Name: "Figure4/Q1/QaC+", NsPerOp: 100000},
		{Name: "Figure4/Q1/CaQ", NsPerOp: 9000000},
		{Name: "Retired/Bench", NsPerOp: 42},
	}
	newRecs := []Record{
		{Name: "Figure4/Q1/QaC+", NsPerOp: 110000},
		{Name: "Figure4/Q1/CaQ", NsPerOp: 4500000},
		{Name: "Continuous/events=100/QaC+", NsPerOp: 510705},
	}
	var sb strings.Builder
	diffTable(&sb, oldRecs, newRecs)
	out := sb.String()
	for _, want := range []string{
		"benchmark",
		"old ns/op",
		"+10.0%", // QaC+ regressed 100000 -> 110000
		"-50.0%", // CaQ improved 9000000 -> 4500000
		"new",    // Continuous only in the new snapshot
		"gone",   // Retired only in the old snapshot
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diff table missing %q:\n%s", want, out)
		}
	}
	// a benchmark that exists on both sides appears exactly once
	if n := strings.Count(out, "Figure4/Q1/QaC+"); n != 1 {
		t.Errorf("Figure4/Q1/QaC+ appears %d times, want 1:\n%s", n, out)
	}
}

func TestDiffTableZeroOld(t *testing.T) {
	oldRecs := []Record{{Name: "B", NsPerOp: 0}}
	newRecs := []Record{{Name: "B", NsPerOp: 100}}
	var sb strings.Builder
	diffTable(&sb, oldRecs, newRecs)
	if !strings.Contains(sb.String(), "n/a") {
		t.Errorf("zero-baseline delta should be n/a:\n%s", sb.String())
	}
}

func TestTrimProcs(t *testing.T) {
	for in, want := range map[string]string{
		"Figure4/Q1/QaC+-8": "Figure4/Q1/QaC+",
		"Figure4/Q1/QaC+":   "Figure4/Q1/QaC+",
		"XMLParse-16":       "XMLParse",
	} {
		if got := trimProcs(in); got != want {
			t.Errorf("trimProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

// The gate holds a re-run to a snapshot on what the host does not decide:
// an access counter that moves by one, a row the snapshot lacks and
// allocs/op past 2 % + 2 each miss; ns/op never does.
func TestGateTable(t *testing.T) {
	snap := []Record{
		{Name: "PlanGrid/Q2/QaC+", NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 1000, "fillers/op": 10, "mat-bytes/op": 5}},
		{Name: "PlanGrid/Q1/QaC+", NsPerOp: 100, Metrics: map[string]float64{"allocs/op": 50, "fillers/op": 3}},
	}
	for _, c := range []struct {
		name   string
		run    Record
		misses int
		why    string
	}{
		{"identical, slower", Record{Name: "PlanGrid/Q2/QaC+", NsPerOp: 900, Metrics: map[string]float64{"allocs/op": 1000, "fillers/op": 10, "mat-bytes/op": 5}}, 0, "ok"},
		{"allocs within 2 % + 2", Record{Name: "PlanGrid/Q2/QaC+", Metrics: map[string]float64{"allocs/op": 1022, "fillers/op": 10, "mat-bytes/op": 5}}, 0, "ok"},
		{"allocs past it", Record{Name: "PlanGrid/Q2/QaC+", Metrics: map[string]float64{"allocs/op": 1023, "fillers/op": 10, "mat-bytes/op": 5}}, 1, "allocs/op 1000 -> 1023"},
		{"fewer allocs", Record{Name: "PlanGrid/Q1/QaC+", Metrics: map[string]float64{"allocs/op": 30, "fillers/op": 3}}, 0, "ok"},
		{"a counter moved", Record{Name: "PlanGrid/Q2/QaC+", Metrics: map[string]float64{"allocs/op": 900, "fillers/op": 11, "mat-bytes/op": 5}}, 1, "fillers/op 10 -> 11"},
		{"a counter appeared", Record{Name: "PlanGrid/Q1/QaC+", Metrics: map[string]float64{"allocs/op": 50, "fillers/op": 3, "holes/op": 0}}, 1, "holes/op"},
		{"not in the snapshot", Record{Name: "PlanGrid/Q9/QaC+", Metrics: map[string]float64{}}, 1, "not in the snapshot"},
	} {
		var sb strings.Builder
		if got := gateTable(&sb, snap, []Record{c.run}); got != c.misses || !strings.Contains(sb.String(), c.why) {
			t.Errorf("%s: %d misses, want %d, with %q:\n%s", c.name, got, c.misses, c.why, sb.String())
		}
	}
}
