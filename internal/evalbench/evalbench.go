// Package evalbench is the harness that regenerates the paper's
// experimental evaluation (§7, Figure 4): XMark auction data at the three
// published sizes, queries Q1/Q2/Q5, and the paper's three execution
// plans QaC+/QaC/CaQ. cmd/figure4 prints the table; bench_test.go
// measures the same cells under testing.B.
package evalbench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/xcql"
	"xcql/internal/xmark"
	"xcql/internal/xq"
)

// EvalInstant is the fixed evaluation time used by every run: after all
// generated events, so queries see the complete history.
var EvalInstant = time.Date(2004, time.June, 1, 0, 0, 0, 0, time.UTC)

// Dataset is one generated workload loaded into a fragment store.
type Dataset struct {
	Scale     float64
	FileSize  int // serialized document bytes (paper's "File Size")
	FragSize  int // serialized fragment-stream bytes ("Fragmented File Size")
	Fragments int
	Store     *fragment.Store
	Runtime   *xcql.Runtime
}

// Build generates the auction data at the given scale and loads it. When
// scanStore is true the store uses the paper's linear-scan cost model
// (get_fillers as a predicate scan over the fragment log); false gives
// the production indexed store — the indexing ablation.
func Build(scale float64, scanStore bool) (*Dataset, error) {
	s, frags, plain := xmark.GenerateFragments(xmark.Config{Scale: scale, Seed: 1})
	var st *fragment.Store
	if scanStore {
		st = fragment.NewScanStore(s)
	} else {
		st = fragment.NewStore(s)
	}
	if err := st.AddAll(frags); err != nil {
		return nil, err
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("auction", st)
	return &Dataset{
		Scale:     scale,
		FileSize:  plain,
		FragSize:  xmark.FragmentedSize(frags),
		Fragments: len(frags),
		Store:     st,
		Runtime:   rt,
	}, nil
}

// Queries are the three §7 benchmark queries in paper order.
func Queries() []struct{ Name, Src string } {
	return []struct{ Name, Src string }{
		{"Q1", xmark.QueryQ1()},
		{"Q2", xmark.QueryQ2()},
		{"Q5", xmark.QueryQ5()},
	}
}

// Modes in the paper's row order, fastest plan first.
var Modes = []xcql.Mode{xcql.QaCPlus, xcql.QaC, xcql.CaQ}

// Scales used by Figure 4 (the paper's scaling factors 0.0 / 0.05 / 0.1).
var Scales = []float64{0.0, 0.05, 0.1}

// QuickScales is a fast variant for smoke runs and -short benchmarks.
var QuickScales = []float64{0.0, 0.005, 0.01}

// Cell runs one (dataset, query, mode) cell once and reports the wall
// time and result cardinality. Compilation happens outside the timed
// region — the paper times query execution over fragments.
func Cell(ds *Dataset, src string, mode xcql.Mode) (time.Duration, int, error) {
	q, err := ds.Runtime.Compile(src, mode)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	seq, err := q.Eval(EvalInstant)
	if err != nil {
		return 0, 0, err
	}
	return time.Since(start), resultCount(seq), nil
}

// resultCount reports the result cardinality, unwrapping the single
// number produced by aggregate queries so Q5's "count" is comparable.
func resultCount(seq xq.Sequence) int {
	if len(seq) == 1 {
		if f, ok := seq[0].(float64); ok {
			return int(f)
		}
	}
	return len(seq)
}

// Row is one line of the Figure-4 table.
type Row struct {
	Query    string
	Scale    float64
	FileSize int
	FragSize int
	Mode     xcql.Mode
	RunTime  time.Duration
	Results  int
}

// RunFigure4 executes the full grid. Each dataset is built once and
// shared by its nine cells (3 queries × 3 plans). progress, when
// non-nil, receives one line per finished cell.
func RunFigure4(scales []float64, scanStore bool, progress io.Writer) ([]Row, error) {
	var rows []Row
	for _, scale := range scales {
		ds, err := Build(scale, scanStore)
		if err != nil {
			return nil, err
		}
		for _, q := range Queries() {
			for _, mode := range Modes {
				d, n, err := Cell(ds, q.Src, mode)
				if err != nil {
					return nil, fmt.Errorf("%s/%s/sf=%g: %w", q.Name, mode, scale, err)
				}
				rows = append(rows, Row{
					Query: q.Name, Scale: scale,
					FileSize: ds.FileSize, FragSize: ds.FragSize,
					Mode: mode, RunTime: d, Results: n,
				})
				if progress != nil {
					fmt.Fprintf(progress, "done %s sf=%-5g %-4s %12v (%d results)\n",
						q.Name, scale, mode, d.Round(time.Microsecond), n)
				}
			}
		}
	}
	return rows, nil
}

// FormatTable renders rows in the layout of the paper's Figure 4:
// Query | File Size | Fragmented File Size | Method | Run Time.
func FormatTable(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-12s %-12s %-6s %14s %10s\n",
		"Query", "File Size", "Frag. Size", "Method", "Run Time", "Results")
	fmt.Fprintln(&b, strings.Repeat("-", 66))
	ordered := make([]Row, len(rows))
	copy(ordered, rows)
	sort.SliceStable(ordered, func(i, j int) bool {
		if ordered[i].Query != ordered[j].Query {
			return ordered[i].Query < ordered[j].Query
		}
		return ordered[i].Scale < ordered[j].Scale
	})
	for _, r := range ordered {
		fmt.Fprintf(&b, "%-6s %-12s %-12s %-6s %14s %10d\n",
			r.Query, humanBytes(r.FileSize), humanBytes(r.FragSize),
			r.Mode, formatMs(r.RunTime), r.Results)
	}
	return b.String()
}

func humanBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMb", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKb", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%db", n)
	}
}

func formatMs(d time.Duration) string {
	return fmt.Sprintf("%.3fms", float64(d.Microseconds())/1000)
}

// SpeedupSummary reports, per query and scale, the QaC/QaC+ and CaQ/QaC
// ratios — the paper's headline claim is that each step is about an
// order of magnitude at the larger sizes.
func SpeedupSummary(rows []Row) string {
	type key struct {
		q     string
		scale float64
	}
	times := map[key]map[string]time.Duration{}
	for _, r := range rows {
		k := key{r.Query, r.Scale}
		if times[k] == nil {
			times[k] = map[string]time.Duration{}
		}
		times[k][r.Mode.String()] = r.RunTime
	}
	keys := make([]key, 0, len(times))
	for k := range times {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].q != keys[j].q {
			return keys[i].q < keys[j].q
		}
		return keys[i].scale < keys[j].scale
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-8s %14s %14s\n", "Query", "Scale", "QaC/QaC+", "CaQ/QaC")
	for _, k := range keys {
		t := times[k]
		ratio := func(a, b time.Duration) string {
			if b == 0 {
				return "n/a"
			}
			return fmt.Sprintf("%.1fx", float64(a)/float64(b))
		}
		fmt.Fprintf(&b, "%-6s %-8g %14s %14s\n", k.q, k.scale,
			ratio(t["QaC"], t["QaC+"]), ratio(t["CaQ"], t["QaC"]))
	}
	return b.String()
}
