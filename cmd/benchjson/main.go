// Command benchjson converts `go test -bench` output on stdin into a
// JSON array on stdout, one record per benchmark result line. The
// Makefile's bench-json target pipes the Figure-4 and selectivity
// benchmarks through it to snapshot the performance trajectory
// (BENCH_*.json) across PRs — cost counters and histogram quantile
// metrics (p50-ns/op, p99-ns/op, …) included: any `value unit` pair a
// benchmark reports lands in Metrics verbatim.
//
// Usage:
//
//	go test -bench 'BenchmarkFigure4$' -benchmem . | go run ./cmd/benchjson
//	go run ./cmd/benchjson -diff BENCH_pr18.json BENCH_pr19.json
//
// With -diff, two snapshot files are compared and a regression table of
// the overlapping benchmarks is printed: old and new ns/op and the
// relative change, plus benchmarks only one side has.
//
// With -gate, the benchmark output on stdin is held to a snapshot on the
// metrics a re-run reproduces — the access counters, bytes materialized
// and a re-announcement's wire, segment and decode counters exactly,
// allocs/op within 2 % + 2 — and the command fails
// when a row misses; ns/op is printed, never judged:
//
//	go test -bench 'BenchmarkPlanGrid$' -benchtime 20x -benchmem -short . | go run ./cmd/benchjson -gate BENCH_pr21.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Record is one benchmark result. NsPerOp duplicates Metrics["ns/op"]
// for convenience; every other `value unit` pair lands in Metrics
// verbatim (B/op, allocs/op, fillers/op, …).
type Record struct {
	Name       string             `json:"name"`
	Bench      string             `json:"bench"`
	Query      string             `json:"query,omitempty"`
	Scale      *float64           `json:"scale,omitempty"`
	Plan       string             `json:"plan,omitempty"`
	Iterations int64              `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	Metrics    map[string]float64 `json:"metrics"`
}

func main() {
	diffMode := flag.Bool("diff", false, "compare two snapshot files: benchjson -diff old.json new.json")
	gateSnap := flag.String("gate", "", "hold the benchmark output on stdin to this snapshot file")
	flag.Parse()
	if *gateSnap != "" {
		if err := runGate(os.Stdout, os.Stdin, *gateSnap); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	if *diffMode {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -diff wants exactly two snapshot files")
			os.Exit(2)
		}
		if err := runDiff(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	records, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(records); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func loadSnapshot(path string) ([]Record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []Record
	if err := json.Unmarshal(b, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

func runDiff(w io.Writer, oldPath, newPath string) error {
	oldRecs, err := loadSnapshot(oldPath)
	if err != nil {
		return err
	}
	newRecs, err := loadSnapshot(newPath)
	if err != nil {
		return err
	}
	diffTable(w, oldRecs, newRecs)
	return nil
}

// diffTable prints the regression table: overlapping benchmarks with old
// and new ns/op and the relative change, then the names present on only
// one side. A zero old baseline renders the delta as n/a rather than a
// division by zero.
func diffTable(w io.Writer, oldRecs, newRecs []Record) {
	oldBy := make(map[string]Record, len(oldRecs))
	for _, r := range oldRecs {
		oldBy[r.Name] = r
	}
	newNames := make(map[string]bool, len(newRecs))
	fmt.Fprintf(w, "%-50s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, nr := range newRecs {
		newNames[nr.Name] = true
		or, ok := oldBy[nr.Name]
		if !ok {
			continue
		}
		delta := "n/a"
		if or.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(nr.NsPerOp-or.NsPerOp)/or.NsPerOp)
		}
		fmt.Fprintf(w, "%-50s %14.0f %14.0f %9s\n", nr.Name, or.NsPerOp, nr.NsPerOp, delta)
	}
	for _, nr := range newRecs {
		if _, ok := oldBy[nr.Name]; !ok {
			fmt.Fprintf(w, "%-50s %14s %14.0f %9s\n", nr.Name, "-", nr.NsPerOp, "new")
		}
	}
	for _, or := range oldRecs {
		if !newNames[or.Name] {
			fmt.Fprintf(w, "%-50s %14.0f %14s %9s\n", or.Name, or.NsPerOp, "-", "gone")
		}
	}
}

// gateExact are the metrics a re-run must reproduce to the unit: they
// follow from the data and the plan, not from the host.
var gateExact = []string{"fillers/op", "holes/op", "tsid-hits/op", "handlers/op", "mat-bytes/op",
	"wire-B/reannounce", "seg-B/frame", "decode-allocs/reannounce", "decode-B/reannounce"}

// allocsAllowed is the most allocs/op a re-run may take against a
// snapshot's: a fixed-iteration run amortizes one-off allocations over
// fewer operations than the snapshot's did.
func allocsAllowed(snapshot float64) float64 { return snapshot*1.02 + 2 }

func runGate(w io.Writer, r io.Reader, snapPath string) error {
	snap, err := loadSnapshot(snapPath)
	if err != nil {
		return err
	}
	out, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	// a benchmark that fails leaves no row to miss: the run fails instead
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "FAIL") || strings.HasPrefix(strings.TrimSpace(line), "--- FAIL") || strings.HasPrefix(line, "panic:") {
			return fmt.Errorf("gate: the benchmark run failed: %s", line)
		}
	}
	run, err := parse(bufio.NewScanner(strings.NewReader(string(out))))
	if err != nil {
		return err
	}
	if len(run) == 0 {
		return fmt.Errorf("gate: no benchmark results on stdin")
	}
	if misses := gateTable(w, snap, run); misses > 0 {
		return fmt.Errorf("gate: %d of %d rows miss %s", misses, len(run), snapPath)
	}
	return nil
}

// gateTable prints one line per run row — ns/op and allocs/op against the
// snapshot and a verdict — and returns how many rows miss: a row the
// snapshot lacks, an exact metric that moved, or allocs/op past
// allocsAllowed.
func gateTable(w io.Writer, snap, run []Record) (misses int) {
	snapBy := make(map[string]Record, len(snap))
	for _, r := range snap {
		snapBy[r.Name] = r
	}
	fmt.Fprintf(w, "%-58s %12s %12s %10s %10s  %s\n", "benchmark", "snap ns/op", "run ns/op", "snap alloc", "run alloc", "verdict")
	for _, nr := range run {
		or, ok := snapBy[nr.Name]
		var why []string
		if !ok {
			why = append(why, "not in the snapshot")
		} else {
			for _, m := range gateExact {
				ov, oin := or.Metrics[m]
				nv, nin := nr.Metrics[m]
				if oin != nin || ov != nv {
					why = append(why, fmt.Sprintf("%s %v -> %v", m, ov, nv))
				}
			}
			if nv := nr.Metrics["allocs/op"]; nv > allocsAllowed(or.Metrics["allocs/op"]) {
				why = append(why, fmt.Sprintf("allocs/op %v -> %v", or.Metrics["allocs/op"], nv))
			}
		}
		verdict := "ok"
		if len(why) > 0 {
			misses++
			verdict = "MISS: " + strings.Join(why, ", ")
		}
		fmt.Fprintf(w, "%-58s %12.0f %12.0f %10.0f %10.0f  %s\n", nr.Name, or.NsPerOp, nr.NsPerOp, or.Metrics["allocs/op"], nr.Metrics["allocs/op"], verdict)
	}
	return misses
}

func parse(sc *bufio.Scanner) ([]Record, error) {
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	records := []Record{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name iterations {value unit}... — anything shorter is a header
		// or a failure line, not a result.
		if len(fields) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Record{
			Name:       trimProcs(strings.TrimPrefix(fields[0], "Benchmark")),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		r.Bench, r.Query, r.Scale, r.Plan = dissect(r.Name)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q in %q", fields[i], line)
			}
			r.Metrics[fields[i+1]] = v
		}
		r.NsPerOp = r.Metrics["ns/op"]
		records = append(records, r)
	}
	return records, sc.Err()
}

// trimProcs drops the trailing -GOMAXPROCS suffix go test appends to the
// benchmark name (Figure4/Q1/sf=0/QaC+-8 → Figure4/Q1/sf=0/QaC+).
func trimProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// dissect pulls the structured coordinates out of a sub-benchmark path:
// the leading benchmark name, a Q* segment as the query, an sf= segment
// as the scale, and a plan-name segment as the plan.
func dissect(name string) (bench, query string, scale *float64, plan string) {
	segs := strings.Split(name, "/")
	bench = segs[0]
	for _, s := range segs[1:] {
		switch {
		case strings.HasPrefix(s, "sf="):
			if v, err := strconv.ParseFloat(s[3:], 64); err == nil {
				scale = &v
			}
		case s == "CaQ" || s == "QaC" || s == "QaC+":
			plan = s
		case len(s) >= 2 && s[0] == 'Q' && s[1] >= '0' && s[1] <= '9':
			query = s
		}
	}
	return bench, query, scale, plan
}
