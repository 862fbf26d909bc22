package xcql_test

// Benchmarks regenerating the paper's evaluation (§7) and the ablations
// called out in DESIGN.md.
//
//	BenchmarkFigure4/…        one sub-benchmark per cell of Figure 4
//	                          (query × size × method)
//	BenchmarkPlanGrid/…       the three plans (CaQ/QaC/QaC+) over the
//	                          Figure-4 queries plus a descendant-step row
//	BenchmarkFigure4Indexed/… the indexing ablation (production store)
//	BenchmarkSelectivity/…    Q5's price threshold swept
//	BenchmarkGranularity/…    fragmentation granularity: fine vs coarse
//	BenchmarkGetFillers/…     hole resolution: indexed vs scan cost model
//	BenchmarkContinuous/…     per-arrival re-evaluation latency
//	BenchmarkHistory/…        ad hoc reads of a long credit history
//	BenchmarkReannounce/…     what a re-announcement costs each layer, deep in a history
//
// Under -short the grid shrinks to the quick scales; the full run uses
// the paper's sizes (~27 KB / 5.8 MB / 11.8 MB).

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"xcql/internal/evalbench"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/obs"
	"xcql/internal/registry"
	"xcql/internal/segstore"
	"xcql/internal/stream"
	"xcql/internal/tagstruct"
	ixcql "xcql/internal/xcql"
	"xcql/internal/xmark"
	"xcql/internal/xmldom"
)

func benchScales(b *testing.B) []float64 {
	if testing.Short() {
		return evalbench.QuickScales
	}
	return evalbench.Scales
}

var datasetCache = map[string]*evalbench.Dataset{}

func dataset(b *testing.B, scale float64, scan bool) *evalbench.Dataset {
	b.Helper()
	key := fmt.Sprintf("%v/%v", scale, scan)
	if ds, ok := datasetCache[key]; ok {
		return ds
	}
	ds, err := evalbench.Build(scale, scan)
	if err != nil {
		b.Fatal(err)
	}
	datasetCache[key] = ds
	return ds
}

// BenchmarkFigure4 is the paper's Figure 4: run time of Q1/Q2/Q5 over
// fragmented XMark streams under QaC+, QaC and CaQ, with the
// published linear-scan get_fillers cost model.
func BenchmarkFigure4(b *testing.B) {
	for _, scale := range benchScales(b) {
		for _, query := range evalbench.Queries() {
			for _, mode := range evalbench.Modes {
				name := fmt.Sprintf("%s/sf=%g/%s", query.Name, scale, mode)
				b.Run(name, func(b *testing.B) {
					ds := dataset(b, scale, true)
					q, err := ds.Runtime.Compile(query.Src, mode)
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(float64(ds.FileSize), "doc-bytes")
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := q.Eval(evalbench.EvalInstant); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					reportCostMetrics(b, q)
				})
			}
		}
	}
}

// reportCostMetrics attaches the last evaluation's cost counters to the
// benchmark output, so BENCH_*.json tracks the paper's cost quantities
// (fillers scanned, holes resolved, tsid hits, bytes materialized) next
// to wall time across PRs.
func reportCostMetrics(b *testing.B, q *ixcql.Query) {
	b.Helper()
	s := q.LastStats()
	b.ReportMetric(float64(s.FillersScanned), "fillers/op")
	b.ReportMetric(float64(s.HolesResolved), "holes/op")
	b.ReportMetric(float64(s.TSIDIndexHits), "tsid-hits/op")
	b.ReportMetric(float64(s.BytesMaterialized), "mat-bytes/op")
}

// BenchmarkPlanGrid is the plan grid: every Figure-4 query plus a
// descendant-step row (QD, the shape QaC+'s tsid index serves directly)
// under the three plans on the scan store. One untimed warmup evaluation
// runs outside the timer.
func BenchmarkPlanGrid(b *testing.B) {
	scale := 0.02
	if testing.Short() {
		scale = 0.01
	}
	queries := append(evalbench.Queries(), struct{ Name, Src string }{
		"QD", `for $c in stream("auction")//closed_auction return $c/price`,
	})
	for _, query := range queries {
		for _, mode := range evalbench.Modes {
			b.Run(fmt.Sprintf("%s/%s", query.Name, mode), func(b *testing.B) {
				ds := dataset(b, scale, true)
				q, err := ds.Runtime.Compile(query.Src, mode)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := q.Eval(evalbench.EvalInstant); err != nil {
					b.Fatal(err) // warmup, outside the timer
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := q.Eval(evalbench.EvalInstant); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportCostMetrics(b, q)
			})
		}
	}
}

// BenchmarkFigure4Indexed is the indexing ablation: the same cells over
// the production indexed store. The CaQ ≫ QaC ≫ QaC+ separation collapses
// to the work each plan actually touches, showing how much of the
// published gap is the get_fillers scan itself.
func BenchmarkFigure4Indexed(b *testing.B) {
	scale := 0.05
	if testing.Short() {
		scale = 0.01
	}
	for _, query := range evalbench.Queries() {
		for _, mode := range evalbench.Modes {
			b.Run(fmt.Sprintf("%s/%s", query.Name, mode), func(b *testing.B) {
				ds := dataset(b, scale, false)
				q, err := ds.Runtime.Compile(query.Src, mode)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := q.Eval(evalbench.EvalInstant); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportCostMetrics(b, q)
			})
		}
	}
}

// BenchmarkSelectivity sweeps Q5's price threshold under QaC and QaC+:
// access cost dominates QaC regardless of selectivity, while QaC+ scales
// with the touched fragments — §7's observation that the gap widens on
// selective queries.
func BenchmarkSelectivity(b *testing.B) {
	scale := 0.05
	if testing.Short() {
		scale = 0.01
	}
	for _, threshold := range []int{0, 40, 120, 190} {
		for _, mode := range []ixcql.Mode{ixcql.QaCPlus, ixcql.QaC} {
			b.Run(fmt.Sprintf("price>=%d/%s", threshold, mode), func(b *testing.B) {
				ds := dataset(b, scale, true)
				src := fmt.Sprintf(`count(for $i in stream("auction")/site/closed_auctions/closed_auction
				                      where $i/price >= %d return $i/price)`, threshold)
				q, err := ds.Runtime.Compile(src, mode)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := q.Eval(evalbench.EvalInstant); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				reportCostMetrics(b, q)
			})
		}
	}
}

// BenchmarkTraceOverhead guards the "tracing off costs nothing" claim:
// the same evaluation with the sink disabled and enabled. The disabled
// run must match the untraced baseline (no extra allocations on the
// nil-sink path); the enabled run shows the price of collection.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "disabled"
		if traced {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			ds, err := evalbench.Build(0, false)
			if err != nil {
				b.Fatal(err)
			}
			if traced {
				ds.Runtime.SetTraceSink(&collectNothingSink{})
			}
			q, err := ds.Runtime.Compile(xmark.QueryQ1(), ixcql.QaCPlus)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(evalbench.EvalInstant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// collectNothingSink is the cheapest possible sink, so the enabled cell
// measures the engine's emission cost rather than span storage.
type collectNothingSink struct{}

func (collectNothingSink) Span(string, string, time.Time, time.Duration) {}

// BenchmarkTracePropagation guards the wire-propagation path the same
// way BenchmarkTraceOverhead guards the evaluation sink: one fragment
// published through a broadcast server into a subscriber, with the
// flight recorder detached (the disabled cell must add zero allocations
// over the untraced baseline) and attached (the enabled cell prices
// span recording + trace stamping).
func BenchmarkTracePropagation(b *testing.B) {
	structure, err := tagstruct.ParseString(`<stream:structure>
<tag type="snapshot" id="1" name="sensors">
  <tag type="event" id="2" name="event">
    <tag type="snapshot" id="3" name="value"/>
  </tag>
</tag>
</stream:structure>`)
	if err != nil {
		b.Fatal(err)
	}
	el := xmldom.MustParseString(`<event><value>7</value></event>`).Root()
	for _, traced := range []bool{false, true} {
		name := "disabled"
		if traced {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			s := stream.NewServer("sensors", structure)
			defer s.Close()
			if traced {
				// large sampling interval: measure recording, not ring churn
				s.SetFlightRecorder(obs.NewFlightRecorder(obs.FlightRecorderOptions{SampleEvery: 1 << 20}))
			}
			sub := s.Subscribe(4, false)
			defer sub.Cancel()
			frag := fragment.New(1, 2, time.Date(2003, 1, 1, 0, 0, 0, 0, time.UTC), el)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Publish(frag)
				<-sub.C()
			}
		})
	}
}

// BenchmarkGranularity compares fragmentation granularities of the same
// document — §4's "reasonable fragmentation" trade-off. Finer cuts cost
// wire bytes (reported as metrics) but keep updates small; query time for
// Q5 is nearly unaffected because closed auctions fragment in both.
func BenchmarkGranularity(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Scale: 0.01, Seed: 1})
	for _, g := range []struct {
		name string
		s    *tagstruct.Structure
	}{
		{"fine", xmark.Structure()},
		{"coarse", xmark.CoarseStructure()},
	} {
		fr := fragment.NewFragmenter(g.s)
		frags, err := fr.Fragment(doc.Clone())
		if err != nil {
			b.Fatal(err)
		}
		st := fragment.NewStore(g.s)
		if err := st.AddAll(frags); err != nil {
			b.Fatal(err)
		}
		rt := ixcql.NewRuntime()
		rt.RegisterStream("auction", st)
		q, err := rt.Compile(xmark.QueryQ5(), ixcql.QaCPlus)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(g.name, func(b *testing.B) {
			b.ReportMetric(float64(len(frags)), "fragments")
			b.ReportMetric(float64(xmark.FragmentedSize(frags)), "wire-bytes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(evalbench.EvalInstant); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGetFillers measures hole resolution itself — the paper's
// get_fillers, a read through one hole —: indexed store versus
// the paper's scan cost model, at two stream sizes.
func BenchmarkGetFillers(b *testing.B) {
	for _, scale := range []float64{0.005, 0.02} {
		for _, scan := range []bool{false, true} {
			label := "indexed"
			if scan {
				label = "scan"
			}
			b.Run(fmt.Sprintf("sf=%g/%s", scale, label), func(b *testing.B) {
				ds := dataset(b, scale, scan)
				ids := ds.Store.FillerIDs()
				acc := fragment.NewAccess(fragment.LogScanAccess, fragment.Eval{At: evalbench.EvalInstant})
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _ = acc.Read(ds.Store, fragment.Read{Source: fragment.FromHole, ID: ids[i%len(ids)]})
				}
			})
		}
	}
}

const benchCreditStructure = `<stream:structure>
<tag type="snapshot" id="1" name="creditAccounts">
  <tag type="temporal" id="2" name="account">
    <tag type="snapshot" id="3" name="customer"/>
    <tag type="temporal" id="4" name="creditLimit"/>
    <tag type="event" id="5" name="transaction">
      <tag type="snapshot" id="6" name="vendor"/>
      <tag type="temporal" id="7" name="status"/>
      <tag type="snapshot" id="8" name="amount"/>
    </tag>
  </tag>
</tag>
</stream:structure>`

// BenchmarkContinuous measures the per-arrival latency of re-evaluating
// the paper's fraud-style sliding-window query as charge events stream in.
func BenchmarkContinuous(b *testing.B) {
	for _, preload := range []int{100, 1000} {
		b.Run(fmt.Sprintf("events=%d", preload), func(b *testing.B) {
			structure, err := tagstruct.ParseString(benchCreditStructure)
			if err != nil {
				b.Fatal(err)
			}
			st := fragment.NewStore(structure)
			base := time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)
			el := func(src string) *xmldom.Node { return xmldom.MustParseString(src).Root() }
			holes := `<hole id="2" tsid="4"/>`
			for i := 0; i < preload; i++ {
				holes += fmt.Sprintf(`<hole id="%d" tsid="5"/>`, 100+i)
			}
			mustAdd(b, st, fragment.New(0, 1, base, el(`<creditAccounts><hole id="1" tsid="2"/></creditAccounts>`)))
			mustAdd(b, st, fragment.New(1, 2, base, el(`<account id="1234"><customer>J</customer>`+holes+`</account>`)))
			mustAdd(b, st, fragment.New(2, 4, base, el(`<creditLimit>5000</creditLimit>`)))
			for i := 0; i < preload; i++ {
				tx := fmt.Sprintf(`<transaction id="t%d"><vendor>V</vendor><amount>%d</amount></transaction>`, i, 10+i%90)
				mustAdd(b, st, fragment.New(100+i, 5, base.Add(time.Duration(i)*time.Second), el(tx)))
			}
			rt := ixcql.NewRuntime()
			rt.RegisterStream("credit", st)
			q, err := rt.Compile(`for $a in stream("credit")//account
				where sum($a/transaction?[now-PT1H,now]/amount) >= 5000
				return $a/@id`, ixcql.QaCPlus)
			if err != nil {
				b.Fatal(err)
			}
			at := base.Add(time.Duration(preload) * time.Second)
			hist := obs.NewHistogram()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if _, err := q.Eval(at); err != nil {
					b.Fatal(err)
				}
				hist.Observe(time.Since(start))
			}
			b.StopTimer()
			// tail latency alongside the mean: benchjson picks these up as
			// ordinary metrics, so snapshots track p99 across PRs
			snap := hist.Snapshot()
			b.ReportMetric(float64(snap.Quantile(0.50)), "p50-ns")
			b.ReportMetric(float64(snap.Quantile(0.90)), "p90-ns")
			b.ReportMetric(float64(snap.Quantile(0.99)), "p99-ns")
		})
	}
}

// BenchmarkParallelCache measures QaC+ on a scale-heavy scan store whose
// results carry nested holes, so materialization resolves many
// independent fillers, each a full log pass under the paper's cost model.
// The benchmark's and the row's names are kept from when the grid had
// parallel and cached cells, so snapshots line up across those changes.
func BenchmarkParallelCache(b *testing.B) {
	scale := 0.02
	if testing.Short() {
		scale = 0.005
	}
	ds := dataset(b, scale, true)
	src := `for $x in stream("auction")//open_auction return $x`
	b.Run("QaC+/seq", func(b *testing.B) {
		q, err := ds.Runtime.Compile(src, ixcql.QaCPlus)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := q.Eval(evalbench.EvalInstant); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportCostMetrics(b, q)
	})
}

// BenchmarkFragmenter measures document fragmentation throughput.
func BenchmarkFragmenter(b *testing.B) {
	doc := xmark.Generate(xmark.Config{Scale: 0.01, Seed: 1})
	size := len(doc.Root().String())
	s := xmark.Structure()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr := fragment.NewFragmenter(s)
		if _, err := fr.Fragment(doc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkXMLParse measures the streaming XML parser on generated data.
func BenchmarkXMLParse(b *testing.B) {
	src := xmark.Generate(xmark.Config{Scale: 0.005, Seed: 1}).Root().String()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := xmldom.ParseString(src); err != nil {
			b.Fatal(err)
		}
	}
}

func mustAdd(b *testing.B, st *fragment.Store, f *fragment.Fragment) {
	b.Helper()
	if err := st.Add(f); err != nil {
		b.Fatal(err)
	}
}

// The standing queries of the credit stream: every charge as it is, the
// large ones, and the paper's sliding-window fraud check.
var creditQueries = []struct{ name, src string }{
	{"pass-through", `for $t in stream("credit")//transaction return $t`},
	{"filter", `for $t in stream("credit")//transaction where $t/amount > 500 return $t/amount`},
	{"fraud", `for $a in stream("credit")//account where sum($a/transaction?[now-PT1H,now]/amount) >= 5000 return $a/@id`},
}

// creditStanding is one standing query over the credit stream as a
// publisher sends it (genstore.CreditPublisher): twenty accounts charged
// round robin, `every` apart — ten seconds in the benchmarks, so that an
// hour's window holds 360 charges and expires them as the stream runs on
// — with `events` charges already in the store and evaluated.
type creditStanding struct {
	q   *ixcql.Query
	r   *registry.Registry
	reg *registry.Registration
	// err is the last arrival's evaluation error
	err    error
	pub    *genstore.CreditPublisher
	st     *fragment.Store
	events int
	every  time.Duration
	at     time.Time
}

func newCreditStanding(tb testing.TB, src string, events int, every time.Duration) *creditStanding {
	tb.Helper()
	cs := newCreditHistory(tb, events, every)
	rt := ixcql.NewRuntime()
	rt.RegisterStream("credit", cs.st)
	var err error
	if cs.q, err = rt.Compile(src, ixcql.QaCPlus); err != nil {
		tb.Fatal(err)
	}
	cs.r = registry.New(func() time.Time { return cs.at })
	if cs.reg, err = cs.r.Register(cs.q, registry.Options{OnResult: func(res registry.Result) { cs.err = res.Err }}); err != nil {
		tb.Fatal(err)
	}
	if cs.r.Evaluate(); cs.err != nil {
		tb.Fatal(cs.err)
	}
	return cs
}

// newCreditHistory is the credit stream's store as the publisher sends it,
// `events` charges `every` apart behind it, and no query on it yet; at is
// its last charge's instant.
func newCreditHistory(tb testing.TB, events int, every time.Duration) *creditStanding {
	tb.Helper()
	structure, err := tagstruct.ParseString(genstore.CreditStructure)
	if err != nil {
		tb.Fatal(err)
	}
	pub, initial := genstore.NewCreditPublisher(20)
	cs := &creditStanding{pub: pub, st: fragment.NewStore(structure), every: every, at: genstore.CreditBase}
	if err := cs.st.AddAll(initial); err != nil {
		tb.Fatal(err)
	}
	for _, charge := range cs.charges(events) {
		if err := cs.st.AddAll(charge[:]); err != nil {
			tb.Fatal(err)
		}
		cs.at = charge[1].ValidTime
	}
	return cs
}

// charges builds the next n charges, so that a timer or an allocation
// count around arrive sees ingest and evaluation, not payload building.
func (cs *creditStanding) charges(n int) [][2]*fragment.Fragment {
	out := make([][2]*fragment.Fragment, n)
	for i := range out {
		cs.events++
		at := genstore.CreditBase.Add(time.Duration(cs.events) * cs.every)
		out[i][0], out[i][1] = cs.pub.Charge(cs.events%20, 1+cs.events*37%1000, at)
	}
	return out
}

// arrive ingests and evaluates the two fragments of one charge.
func (cs *creditStanding) arrive(charge [2]*fragment.Fragment) error {
	cs.at = charge[1].ValidTime
	for _, f := range charge {
		if err := cs.st.Add(f); err != nil {
			return err
		}
		if cs.r.Apply(f); cs.err != nil {
			return cs.err
		}
	}
	return nil
}

// historyShapes are the five shapes of ROADMAP's history table: ad hoc
// reads of the credit stream whose cost a long history shows, each at a
// small and a large history (charges).
var historyShapes = []struct {
	name, src string
	charges   [2]int
}{
	{"window", `stream("credit")//transaction?[now-PT1H,now]`, [2]int{360, 3600}},
	{"snapshot", `count(stream("credit")//account?[now])`, [2]int{360, 3600}},
	{"last", `count(stream("credit")//account#[last])`, [2]int{360, 3600}},
	{"sum", `for $a in stream("credit")//account return sum($a/transaction?[now-PT1H,now]/amount)`, [2]int{360, 3600}},
	{"join", `for $t in stream("credit")//transaction return count(stream("credit")//transaction?[vtFrom($t)-PT1M,vtFrom($t)+PT1M])`, [2]int{100, 1000}},
}

// BenchmarkHistory is what an ad hoc read of a long history costs: each
// history shape over the credit stream as its publisher sends it (twenty
// accounts, a charge every ten seconds, so that an hour holds 360
// charges), evaluated at the last charge's instant under each plan. One
// untimed warmup evaluation runs outside the timer. nodes/op and items/op
// are the tops the reads built and the items the query returned. Under
// -short the join's large history, which takes seconds an evaluation under
// every plan, is left out.
func BenchmarkHistory(b *testing.B) {
	for _, shape := range historyShapes {
		for _, charges := range shape.charges {
			if testing.Short() && shape.name == "join" && charges == shape.charges[1] {
				continue
			}
			for _, mode := range evalbench.Modes {
				b.Run(fmt.Sprintf("%s/charges=%d/%s", shape.name, charges, mode), func(b *testing.B) {
					cs := newCreditHistory(b, charges, 10*time.Second)
					rt := ixcql.NewRuntime()
					rt.RegisterStream("credit", cs.st)
					q, err := rt.Compile(shape.src, mode)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := q.Eval(cs.at); err != nil {
						b.Fatal(err) // warmup, outside the timer
					}
					var items int
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						seq, err := q.Eval(cs.at)
						if err != nil {
							b.Fatal(err)
						}
						items = len(seq)
					}
					b.StopTimer()
					s := q.LastStats()
					b.ReportMetric(float64(s.FillersScanned), "fillers/op")
					b.ReportMetric(float64(s.HolesResolved), "holes/op")
					b.ReportMetric(float64(s.NodesConstructed), "nodes/op")
					b.ReportMetric(float64(items), "items/op")
				})
			}
		}
	}
}

// BenchmarkIncrementalContinuous measures the standing-query engine on the
// streaming credit workload. Its row names keep an "incremental" segment,
// so that they match the rows of earlier snapshots.
//
// The reannounce rows are the stream a publisher sends (creditStanding):
// one operation is one charge — the account's re-announcement and the
// transaction, each ingested and evaluated — on twenty accounts with
// `events` charges behind them. The engine re-runs two versions of the
// charged account (fraud) — on the re-announcement the new one (the one
// whose lifespan it closes keeps its output, which reads no stamp), on the
// transaction the one announcing it —, the one transaction (filter,
// pass-through), and nothing for the
// clock moving on until a charge leaves the window, when it re-runs the
// versions holding that charge. What is left grows with the holes of the
// account's latest versions, which each re-run crosses — linearly in that
// one account's history, not with the store.
//
// The incremental/events=N rows keep the older shape, one account
// announcing every filler — preloaded and arriving — in its first and
// only version. No publisher can send that stream (it would have to know
// every future transaction), and it is the only one on which a standing
// query's cost is flat in the store size: there is no parent history to
// re-read. They stay as the floor the reannounce rows are read against.
//
// buffered-bytes-hwm is the engine's standing-buffer high-water mark;
// handlers/op counts the units the last arrival recomputed.
func BenchmarkIncrementalContinuous(b *testing.B) {
	for _, query := range creditQueries {
		for _, events := range []int{100, 1000} {
			b.Run(fmt.Sprintf("reannounce/%s/incremental/events=%d", query.name, events), func(b *testing.B) {
				cs := newCreditStanding(b, query.src, events, 10*time.Second)
				charges := cs.charges(b.N)
				b.ResetTimer()
				for _, charge := range charges {
					if err := cs.arrive(charge); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(cs.reg.Stats().BufferHWMBytes), "buffered-bytes-hwm")
				b.ReportMetric(float64(cs.q.LastStats().HandlerInvocations), "handlers/op")
			})
		}
	}
	for _, preload := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("incremental/events=%d", preload), func(b *testing.B) {
			structure, err := tagstruct.ParseString(benchCreditStructure)
			if err != nil {
				b.Fatal(err)
			}
			st := fragment.NewStore(structure)
			base := time.Date(2003, time.November, 1, 0, 0, 0, 0, time.UTC)
			el := func(src string) *xmldom.Node { return xmldom.MustParseString(src).Root() }
			// announce every filler up front — preloaded and arriving —
			// so arrivals are pure event ingest, no re-announcement
			var holes strings.Builder
			holes.WriteString(`<hole id="2" tsid="4"/>`)
			for i := 0; i < preload+b.N; i++ {
				fmt.Fprintf(&holes, `<hole id="%d" tsid="5"/>`, 100+i)
			}
			mustAdd(b, st, fragment.New(0, 1, base, el(`<creditAccounts><hole id="1" tsid="2"/></creditAccounts>`)))
			mustAdd(b, st, fragment.New(1, 2, base, el(`<account id="1234"><customer>J</customer>`+holes.String()+`</account>`)))
			mustAdd(b, st, fragment.New(2, 4, base, el(`<creditLimit>5000</creditLimit>`)))
			newTx := func(i int) *fragment.Fragment {
				tx := fmt.Sprintf(`<transaction id="t%d"><vendor>V</vendor><amount>%d</amount></transaction>`, i, 10+i%90)
				return fragment.New(100+i, 5, base.Add(time.Duration(i)*time.Second), el(tx))
			}
			for i := 0; i < preload; i++ {
				mustAdd(b, st, newTx(i))
			}
			rt := ixcql.NewRuntime()
			rt.RegisterStream("credit", st)
			q, err := rt.Compile(`for $t in stream("credit")//transaction return $t`, ixcql.QaCPlus)
			if err != nil {
				b.Fatal(err)
			}
			at := base.Add(time.Duration(preload) * time.Second)
			r := registry.New(func() time.Time { return at })
			reg, err := r.Register(q, registry.Options{OnResult: func(res registry.Result) {
				if res.Err != nil {
					b.Fatal(res.Err)
				}
			}})
			if err != nil {
				b.Fatal(err)
			}
			// seed the standing state outside the timer
			r.Evaluate()
			// prebuild the arrival fragments so the timer measures
			// ingest + evaluation, not payload parsing
			arrivals := make([]*fragment.Fragment, b.N)
			for i := range arrivals {
				arrivals[i] = newTx(preload + i)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := arrivals[i]
				if f.ValidTime.After(at) {
					at = f.ValidTime
				}
				mustAdd(b, st, f)
				r.Apply(f)
			}
			b.StopTimer()
			b.ReportMetric(float64(reg.Stats().BufferHWMBytes), "buffered-bytes-hwm")
			s := q.LastStats()
			b.ReportMetric(float64(s.HandlerInvocations), "handlers/op")
		})
	}
}

// reannounceCharges are BenchmarkReannounce's history lengths: charges in
// all, over twenty accounts.
var reannounceCharges = []int{100, 1000, 5000}

// reannounceProbe is how many of a history's last charges the counters
// average over: one per account.
const reannounceProbe = 20

// captureLog is the durable log a BenchmarkReannounce server writes
// through: it keeps every frame's bytes, as a connection writes them, and
// hands the fragments on to the segment store. Its server's committer
// writes it; a reader of frames calls the server's Sync first.
type captureLog struct {
	*segstore.Store
	frames []string
}

func (l *captureLog) Append(f *fragment.Fragment) error {
	return l.AppendBatch([]*fragment.Fragment{f})
}

func (l *captureLog) AppendBatch(fs []*fragment.Fragment) error {
	for _, f := range fs {
		l.frames = append(l.frames, f.String())
	}
	return l.Store.AppendBatch(fs)
}

// reannounceCost is what the last reannounceProbe charges of a history
// cost: the bytes of their re-announcements on the wire, the segment
// store's bytes per frame over their frames, and what decoding each
// re-announcement into the client store allocates.
type reannounceCost struct {
	wireBytes, segBytesPerFrame, decodeAllocs, decodeBytes float64
}

// runReannounce publishes the credit stream's initial document and
// `charges` charges through a server writing through to a segment store
// in dir, and decodes every frame the log got into a client store, as a
// connection's read loop does.
func runReannounce(tb testing.TB, structure *tagstruct.Structure, charges int, dir string) reannounceCost {
	tb.Helper()
	seg, _, err := segstore.Open(dir, segstore.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	defer seg.Close()
	log := &captureLog{Store: seg}
	srv := stream.NewServer("credit", structure)
	defer srv.Close()
	srv.AttachDurable(log)
	client := fragment.NewStore(structure)
	var dec xmldom.Decoder
	decode := func(wire string) {
		f, err := decodeFrame(&dec, []byte(wire))
		if err == nil {
			err = client.Add(f)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	pub, initial := genstore.NewCreditPublisher(20)
	for _, f := range initial {
		srv.Publish(f)
		srv.Sync()
		decode(log.frames[len(log.frames)-1])
	}
	var c reannounceCost
	var segBefore int64
	var before, after runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // nothing allocates beside a probe
	for k := 1; k <= charges; k++ {
		probe := k > charges-reannounceProbe
		if k == charges-reannounceProbe+1 {
			segBefore = seg.Stats().SegmentBytes
			runtime.GC()
		}
		announce, tx := pub.Charge(k%20, 1+k*37%1000, genstore.CreditBase.Add(time.Duration(k)*10*time.Second))
		srv.Publish(announce)
		srv.Sync()
		wire := []byte(log.frames[len(log.frames)-1])
		if probe {
			c.wireBytes += float64(len(wire))
			runtime.ReadMemStats(&before)
		}
		f, err := decodeFrame(&dec, wire)
		if err == nil {
			err = client.Add(f)
		}
		if err != nil {
			tb.Fatal(err)
		}
		if probe {
			runtime.ReadMemStats(&after)
			c.decodeAllocs += float64(after.Mallocs - before.Mallocs)
			c.decodeBytes += float64(after.TotalAlloc - before.TotalAlloc)
		}
		srv.Publish(tx)
		srv.Sync()
		decode(log.frames[len(log.frames)-1])
	}
	c.segBytesPerFrame = float64(seg.Stats().SegmentBytes-segBefore) / (2 * reannounceProbe)
	c.wireBytes /= reannounceProbe
	c.decodeAllocs /= reannounceProbe
	c.decodeBytes /= reannounceProbe
	if client.Len() != len(log.frames) {
		tb.Fatalf("the client stored %d of %d frames", client.Len(), len(log.frames))
	}
	return c
}

// BenchmarkReannounce is what a re-announcement costs each layer it
// crosses, deep in a history: the credit stream as its publisher sends it
// (twenty accounts, every charge re-announcing its account) published
// through a server writing through to a segment store, each frame decoded
// into a client store as a connection's read loop decodes it. One
// operation is the whole stream; the counters are the last twenty
// charges' — one per account, the history `charges` long behind them —,
// and a re-run reproduces them exactly: wire-B/reannounce is a
// re-announcement's bytes as the log and every connection get them,
// seg-B/frame the segment store's bytes per frame (framing included) over
// those charges' re-announcements and transactions, and
// decode-allocs/reannounce and decode-B/reannounce what decoding and
// storing one re-announcement allocates.
func BenchmarkReannounce(b *testing.B) {
	structure := tagstruct.MustParseString(genstore.CreditStructure)
	for _, charges := range reannounceCharges {
		b.Run(fmt.Sprintf("charges=%d", charges), func(b *testing.B) {
			var c reannounceCost
			for i := 0; i < b.N; i++ {
				dir, err := os.MkdirTemp(b.TempDir(), "seg")
				if err != nil {
					b.Fatal(err)
				}
				c = runReannounce(b, structure, charges, dir)
			}
			b.ReportMetric(c.wireBytes, "wire-B/reannounce")
			b.ReportMetric(c.segBytesPerFrame, "seg-B/frame")
			b.ReportMetric(c.decodeAllocs, "decode-allocs/reannounce")
			b.ReportMetric(c.decodeBytes, "decode-B/reannounce")
		})
	}
}
