// Command e2e is the end-to-end benchmark of the fragment path: publish →
// segstore → TCP → client → registry → WebSocket, and of ad-hoc queries
// through POST /v1/eval, with a per-layer attribution of each. It drives
// the default configuration through public entry points, checks every
// output against a full QaC evaluation and prints every metric by name with
// its unit. See ../README.md.
//
//	go run ./e2e -seed 1                      every workload, both modes
//	go run ./e2e -workload ingest-fanout      one workload
//	go run ./e2e -aa 5 -report results.json   run-to-run spread against the bounds
//
// The driver's form adds -trace 0 (end-to-end metrics only) or -trace 1
// (per-layer metrics only) and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds int
	// endToEnd runs the untraced phases, layers the traced phases and
	// the isolated probes.
	endToEnd bool
	layers   bool
	outDir   string
}

// report collects one workload run's metrics and its output check.
type report struct {
	w       io.Writer
	metrics map[string]float64
	check   *checker
}

func newReport(w io.Writer) *report {
	return &report{w: w, metrics: map[string]float64{}, check: newChecker()}
}

func (r *report) printf(format string, args ...any) { fmt.Fprintf(r.w, format, args...) }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// describe renders a latency distribution the way every timing is
// reported: median, mean, p99 and the highest percentile the sample
// supports, with the sample count.
func (ts timingSummary) describe() string {
	tail := ""
	if ts.TailQ > 0.99 {
		tail = fmt.Sprintf(", p%g %.3f ms", 100*ts.TailQ, ts.Tail)
	}
	return fmt.Sprintf("median %.3f ms, mean %.3f ms, p99 %.3f ms%s over %d samples", ts.Median, ts.Mean, ts.P99, tail, ts.N)
}

// noteFewSamples says so when a timing has too few samples to carry the
// p99 printed with it. That is a remark on the report and not a failed
// op: on a slow host a phase of fixed length serves fewer requests, and
// every one of them may still have been answered correctly.
func noteFewSamples(rep *report, ts timingSummary) {
	if ts.N < minSamples {
		rep.printf("  NOTE: %d latency samples; a p99 needs %d, read the one above as a maximum of few\n", ts.N, minSamples)
	}
}

// printMetrics lists the metrics of one catalogue section that this run
// measured.
func (r *report) printMetrics(title string, defs []metricDef) {
	r.printf("  %s\n", title)
	for _, d := range defs {
		if v, ok := r.metrics[d.Name]; ok {
			bound := ""
			if d.Bound > 0 {
				bound = fmt.Sprintf("  (bound %.0f%%)", 100*d.Bound)
			}
			r.printf("    %-40s %14.4f %-6s%s\n", d.Name, v, d.Unit, bound)
		}
	}
}

// resultLine is the driver's contract: the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine fails when the run left one of defs unmeasured: the driver
// expects every metric of the mode from every workload.
func (r *report) resultLine(defs []metricDef) (resultLine, error) {
	out := resultLine{
		Correct:   r.check.correct(),
		Attempted: r.check.attempted,
		Failed:    r.check.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

func printEnvironment(w io.Writer) {
	tmp := os.TempDir()
	fmt.Fprintf(w, "environment: nproc=%d GOMAXPROCS=%d %s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "environment: segstore temp dir %s on %s, fsync policy = default (every append)\n",
		tmp, filesystemOf(tmp))
}

// runWorkload runs one workload once and returns its report. A harness
// failure (as opposed to a failed op) is an error.
func runWorkload(name string, cfg runConfig, w io.Writer) (*report, error) {
	rep := newReport(w)
	goroutines := runtime.NumGoroutine()
	rep.printf("workload %s seed=%d seconds=%d\n", name, cfg.seed, cfg.seconds)
	var err error
	switch name {
	case "ingest-fanout", "standing-window":
		err = runStreaming(streamSpecs[name], cfg, rep)
	case "adhoc-history", "adhoc-under-ingest":
		err = runAdhoc(adhocSpecs[name], cfg, rep)
	default:
		names := make([]string, len(workloads))
		for i, wl := range workloads {
			names[i] = wl.Name
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if leaked := awaitGoroutines(goroutines); leaked > 0 {
		rep.check.fail("goroutine-leak", fmt.Sprintf("%d goroutines outlived the workload", leaked))
	}
	rep.set("loadgen.ops", float64(rep.check.attempted))
	rep.set("loadgen.failed_share", rep.check.failedShare())
	if cfg.endToEnd {
		rep.printMetrics("end-to-end", endToEndMetrics)
	}
	if cfg.layers {
		rep.printMetrics("per-layer, every workload", perLayerMetrics)
		rep.printMetrics("per-layer, this workload", reportOnlyMetrics)
	} else {
		rep.printMetrics("timings, not bounded", perLayerMetrics[:timingMetrics])
	}
	rep.printf("  check: %s\n", rep.check.summary())
	return rep, nil
}

// awaitGoroutines waits for the goroutine count to fall back to the
// level before the workload and returns how many are still extra.
func awaitGoroutines(base int) int {
	waitFor(func() bool { return runtime.NumGoroutine() <= base })
	return max(runtime.NumGoroutine()-base, 0)
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all)")
		seed     = flag.Uint64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", runSeconds, "length of a measured phase in seconds; fixes the input size")
		trace    = flag.String("trace", "", "0: end-to-end metrics only, 1: per-layer metrics only, empty: both")
		aa       = flag.Int("aa", 0, "run every workload N times and judge each metric's spread against its bound")
		outDir   = flag.String("out", "out", "directory for trace files")
		repPath  = flag.String("report", "", "with -aa: also write the summary as JSON to this file")
		printCat = flag.Bool("catalogue", false, "print BENCHMARK.json as the metric catalogue defines it, and exit")
	)
	flag.Parse()
	if *printCat {
		b, err := json.MarshalIndent(catalogue(), "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		fmt.Println(string(b))
		return
	}
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2e: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, outDir: *outDir}
	switch *trace {
	case "":
		cfg.endToEnd, cfg.layers = true, true
	case "0":
		cfg.endToEnd = true
	case "1":
		cfg.layers = true
	default:
		fmt.Fprintf(os.Stderr, "e2e: -trace must be 0 or 1, not %q\n", *trace)
		os.Exit(2)
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2e: -seconds must be at least 1")
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.Name)
		}
	}
	printEnvironment(os.Stdout)

	if *aa > 0 {
		cfg.endToEnd, cfg.layers = true, false
		ok, err := runAA(names, cfg, *aa, *repPath, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(exitHarness)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	exit := 0
	var last *report
	for _, name := range names {
		rep, err := runWithRetry(name, cfg, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(exitHarness)
		}
		if !rep.check.correct() {
			fmt.Fprintf(os.Stderr, "e2e: %s: %s\n", name, rep.check.summary())
			if exit == 0 {
				exit = rep.check.exitCode()
			}
		}
		last = rep
	}
	if *workload != "" && *trace != "" {
		// the driver's form: one workload, one mode, result as the last line
		defs := endToEndMetrics
		if cfg.layers {
			defs = perLayerMetrics
		}
		res, err := last.resultLine(defs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(exitHarness)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(exitHarness)
		}
		fmt.Println(string(line))
	}
	os.Exit(exit)
}

// Exit codes. A refusal by the driver quotes the code and nothing else, so
// every way a run can end badly has one of its own: 2 is the flag
// package's (bad arguments), 10 is run.sh's (the build failed), 11 means the
// harness could not run the workload (an error, not a failed op), and
// 20 + i means ops failed, i being the place of the first reason counted in
// failureReasons.
const (
	exitHarness = 11
	exitFailed  = 20
)

// retryWithin is how far into a workload a run that the host spoiled is
// still started over: late enough to cover every workload's usual length,
// early enough that two attempts end inside the driver's limit for one.
const retryWithin = 60 * time.Second

// runWithRetry runs a workload and, when the attempt was spoiled in a way
// only the host can cause — the harness timed out waiting, a transport
// counter moved, a delta never arrived, goroutines outlived the teardown —
// reports it and runs the workload once more; the second attempt stands,
// whatever it is. An output that differs from its reference is never
// retried: no stall of the host produces one.
func runWithRetry(name string, cfg runConfig, w io.Writer) (*report, error) {
	return withRetry(func() (*report, error) { return runWorkload(name, cfg, w) }, w)
}

func withRetry(run func() (*report, error), w io.Writer) (*report, error) {
	t0 := time.Now()
	rep, err := run()
	if spoiled := err != nil || rep.check.onlyHostFailures(); !spoiled || time.Since(t0) > retryWithin {
		return rep, err
	}
	why := ""
	if err != nil {
		why = err.Error()
	} else {
		why = rep.check.summary()
	}
	fmt.Fprintf(w, "  attempt 1 discarded after %v: %s\n", time.Since(t0).Round(time.Millisecond), why)
	fmt.Fprintln(os.Stderr, "e2e: attempt 1 discarded:", why)
	return run()
}

// aaSummary is one metric's run-to-run statistics in an -aa report.
type aaSummary struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Q1       float64   `json:"q1"`
	Median   float64   `json:"median"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound"`
	Within   bool      `json:"within_bound"`
}

// runAA runs every workload n times on the same build and seed and
// judges each end-to-end metric's spread (interquartile distance over
// the median) against its bound. setup_s is reported but not judged (its
// spread is the machine's, and the driver does not bound it either), and
// so are the unbounded timings, which are listed for the record.
func runAA(names []string, cfg runConfig, n int, reportPath string, w io.Writer) (bool, error) {
	listed := append(append([]metricDef(nil), endToEndMetrics...), perLayerMetrics[:timingMetrics]...)
	var rows []aaSummary
	ok := true
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			rep, err := runWorkload(name, cfg, io.Discard)
			if err != nil {
				return false, err
			}
			if !rep.check.correct() {
				return false, fmt.Errorf("%s run %d: %s", name, i+1, rep.check.summary())
			}
			for _, d := range listed {
				values[d.Name] = append(values[d.Name], rep.metrics[d.Name])
			}
			fmt.Fprintf(w, "%s run %d/%d done\n", name, i+1, n)
		}
		for _, d := range listed {
			q1, q2, q3 := quartiles(values[d.Name])
			row := aaSummary{
				Workload: name, Metric: d.Name, Unit: d.Unit, Values: values[d.Name],
				Q1: q1, Median: q2, Q3: q3, Spread: spread(values[d.Name]), Bound: d.Bound,
			}
			row.Within = d.Bound == 0 || row.Spread <= row.Bound || d.Name == "setup_s"
			if !row.Within {
				ok = false
			}
			rows = append(rows, row)
		}
	}
	fmt.Fprintf(w, "\n%-20s %-26s %12s %12s %12s %8s %7s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, r := range rows {
		bound, verdict := fmt.Sprintf("%6.0f%%", 100*r.Bound), ""
		if r.Bound == 0 {
			bound = "   none"
		}
		if !r.Within {
			verdict = "  UNRESOLVED: spread exceeds bound"
		}
		fmt.Fprintf(w, "%-20s %-26s %12.4f %12.4f %12.4f %7.1f%% %s%s\n",
			r.Workload, r.Metric, r.Q1, r.Median, r.Q3, 100*r.Spread, bound, verdict)
	}
	if reportPath != "" {
		sort.SliceStable(rows, func(i, j int) bool { return rows[i].Workload < rows[j].Workload })
		b, err := json.MarshalIndent(map[string]any{
			"seed": cfg.seed, "seconds": cfg.seconds, "runs": n,
			"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"metrics": rows,
		}, "", "  ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(reportPath, append(b, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return ok, nil
}
