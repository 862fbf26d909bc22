package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// BENCHMARK.json at the repository root must say what the catalogue in
// metrics.go says; regenerate it with `go run ./e2e -catalogue`.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var got benchmarkFile
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if want := catalogue(); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue:\n got %+v\nwant %+v", got, want)
	}
}

// The catalogue must stay inside the limits the driver refuses a
// benchmark for.
func TestCatalogueIsWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(d metricDef) {
		if !name.MatchString(d.Name) {
			t.Errorf("metric name %q is not well-formed", d.Name)
		}
		if !unit.MatchString(d.Unit) {
			t.Errorf("metric %s: unit %q is not well-formed", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better is %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			t.Errorf("name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	setup := false
	for _, d := range endToEndMetrics {
		check(d)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayerMetrics {
		check(d)
		if i < timingMetrics && !strings.HasPrefix(d.Name, "loadgen.") {
			t.Errorf("metric %s is among the first %d per-layer metrics and is not a load generator timing", d.Name, timingMetrics)
		}
	}
	for _, d := range reportOnlyMetrics {
		check(d)
	}
	if n := len(endToEndMetrics); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(perLayerMetrics); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range workloads {
		if !name.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, want 1 to 200", w.Name, len(w.Why))
		}
		if _, streaming := streamSpecs[w.Name]; !streaming {
			if _, adhoc := adhocSpecs[w.Name]; !adhoc {
				t.Errorf("workload %s has no spec", w.Name)
			}
		}
	}
}
