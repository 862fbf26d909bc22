package main

// The traced run of an ad-hoc workload: the request loop once untraced
// and once with a timing middleware around the API handler and the
// engine's phase spans collected, then direct-evaluation probes of every
// class and, on the quiescent store, Figure 4's grid.

import (
	"context"
	"fmt"
	"sort"
	"time"

	"xcql"
)

// engineSpanNames maps the engine's phase spans onto layer names.
var engineSpanNames = map[string]string{
	"parse":       "xcql.compile",
	"translate":   "xcql.compile",
	"eval":        "xcql.eval",
	"execute":     "xcql.execute",
	"materialize": "temporal.materialize",
}

// spansOfRequests builds the op trees of a traced ad-hoc phase:
// loadgen.request → api.eval → xcql.compile, xcql.eval → xcql.execute,
// temporal.materialize. Requests are sequential, so a handler call
// belongs to the request it began inside of and an engine span to the
// handler call that contains it; whatever the warm-up left behind
// precedes the first request and matches nothing.
func spansOfRequests(epoch time.Time, ph adhocPhase, handlers *handlerTimes, engine []xcql.SpanRecord) []span {
	hStart, hEnd := handlers.snapshot()
	rel := func(t time.Time) int64 { return int64(t.Sub(epoch)) }
	sort.SliceStable(engine, func(i, j int) bool { return engine[i].Start.Before(engine[j].Start) })
	spans := make([]span, 0, ph.requests*7)
	h, next := 0, 0
	for i := 0; i < ph.requests; i++ {
		root := len(spans)
		start := ph.starts[i]
		end := start.Add(time.Duration(ph.latencyMs[i] * 1e6))
		spans = append(spans, span{Name: "loadgen.request", Op: i, Parent: -1, Start: rel(start), End: rel(end)})
		for h < len(hStart) && hStart[h].Before(start) {
			h++
		}
		if h == len(hStart) || hStart[h].After(end) {
			continue
		}
		api, eval := len(spans), -1
		spans = append(spans, span{Name: "api.eval", Op: i, Parent: root, Start: rel(hStart[h]), End: rel(hEnd[h])})
		for ; next < len(engine) && !engine[next].Start.After(hEnd[h]); next++ {
			es := engine[next]
			name := engineSpanNames[es.Name]
			if name == "" || es.Start.Before(hStart[h]) {
				continue
			}
			if name == "xcql.eval" {
				eval = len(spans)
			}
			spans = append(spans, span{Name: name, Op: i, Parent: api, Start: rel(es.Start), End: rel(es.Start.Add(es.Dur))})
		}
		if eval >= 0 {
			for k := api + 1; k < len(spans); k++ {
				if n := spans[k].Name; n == "xcql.execute" || n == "temporal.materialize" {
					spans[k].Parent = eval
				}
			}
		}
	}
	return spans
}

// classProbe is what the direct-evaluation probe learned of one class.
type classProbe struct {
	compileUs, directMs, roundTripMs float64
	stats                            xcql.EvalStats
}

// probeClass compiles and evaluates one class directly and over HTTP on
// the quiet store.
func (r *adhocRig) probeClass(c queryClass) (classProbe, error) {
	var cp classProbe
	mode, err := xcql.ParseMode(c.mode)
	if err != nil {
		return cp, err
	}
	src := adhocQueries[c.query].src
	var compiles, direct, rt []float64
	var q *xcql.Query
	for i := 0; i < 5; i++ {
		t := time.Now()
		if q, err = r.eng.Compile(src, mode); err != nil {
			return cp, err
		}
		compiles = append(compiles, usSince(t))
	}
	for i := 0; i < 21; i++ {
		t := time.Now()
		if _, err := q.EvalContext(context.Background(), evalInstant); err != nil {
			return cp, err
		}
		if i > 0 { // the first evaluation rebuilds whatever the last write invalidated
			direct = append(direct, msSince(t))
		}
	}
	cp.stats = q.LastStats()
	for i := 0; i < 10; i++ {
		t := time.Now()
		if status, _, err := r.post(c); err != nil || status != 200 {
			return cp, fmt.Errorf("probe %s: status %d: %v", c, status, err)
		}
		rt = append(rt, msSince(t))
	}
	cp.compileUs, cp.directMs, cp.roundTripMs = median(compiles), median(direct), median(rt)
	return cp, nil
}

// evalMedianMs is the median wall time of n warm evaluations of q.
func evalMedianMs(q *xcql.Query, n int) (float64, error) {
	if _, err := q.Eval(evalInstant); err != nil {
		return 0, err
	}
	ms := make([]float64, n)
	for i := range ms {
		t := time.Now()
		if _, err := q.Eval(evalInstant); err != nil {
			return 0, err
		}
		ms[i] = msSince(t)
	}
	return median(ms), nil
}

// probeGrid evaluates every query under every plan directly on the
// store — Figure 4's grid, beside the end-to-end numbers it explains —
// and the two execution knobs on the rows they could matter for.
func (r *adhocRig) probeGrid(rep *report) error {
	for _, q := range adhocQueries {
		for _, mode := range []xcql.Mode{xcql.CaQ, xcql.QaC, xcql.QaCPlus, xcql.QaCPlusPlus} {
			cq, err := r.eng.Compile(q.src, mode)
			if err != nil {
				return err
			}
			n := 20
			if mode == xcql.CaQ {
				n = 5
			}
			ms, err := evalMedianMs(cq, n)
			if err != nil {
				return fmt.Errorf("grid %s/%s: %w", q.name, mode, err)
			}
			rep.set("xcql.eval_ms."+q.name+"."+planKeys[mode.String()], ms)
		}
		if q.name != "Q1" && q.name != "QD" {
			continue
		}
		cq, err := r.eng.Compile(q.src, xcql.QaCPlus)
		if err != nil {
			return err
		}
		par, err := evalMedianMs(cq.WithParallelism(4), 20)
		if err != nil {
			return err
		}
		warm, err := evalMedianMs(cq.WithCache(4096), 20)
		if err != nil {
			return err
		}
		rep.set("xcql.eval_ms."+q.name+".qacp.par4", par)
		rep.set("xcql.eval_ms."+q.name+".qacp.warm-cache", warm)
	}
	return nil
}

func adhocLayers(spec *adhocSpec, cfg runConfig, rep *report) error {
	half := time.Duration(cfg.seconds) * time.Second / 2

	var host hostProbe
	var setups setUpTimes
	r0, err := adhocSetUp(spec, cfg, false, &host, &setups)
	if err != nil {
		return err
	}
	base, err := r0.measure(rep.check, half)
	if cerr := r0.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	r, err := adhocSetUp(spec, cfg, true, &host, &setups)
	if err != nil {
		return err
	}
	defer r.close()
	epoch := time.Now()
	traced, err := r.measure(rep.check, half)
	if err != nil {
		return err
	}
	spans := spansOfRequests(epoch, traced, r.handlers, r.sink.snapshot())
	r.eng.SetTraceSink(nil)

	rep.set("obs.trace_overhead_share",
		(float64(base.requests)/base.wall.Seconds())/(float64(traced.requests)/traced.wall.Seconds())-1)
	rep.set("obs.spans_per_op", float64(len(spans))/float64(traced.requests))
	if w := summarize(traced.writeUs); w.N > 0 {
		// Publish → the client's store holds the fragment
		rep.set("stream.transit_us_p50", w.Median)
		rep.set("stream.transit_us_p99", w.P99)
	}
	if lat := summarize(base.latencyMs); !cfg.endToEnd {
		rep.printf("  latency (untraced): %s\n", lat.describe())
		noteFewSamples(rep, lat)
		rep.set("loadgen.latency_mean_ms", lat.Mean)
		rep.set("loadgen.latency_p99_ms", lat.P99)
		rep.set("loadgen.throughput_ops_s", float64(base.requests)/base.wall.Seconds())
		rep.set("loadgen.latency_p50_ms", classMedianMean(base.latencyMs, len(r.classes)))
		first, last := endMedians(roundTotals(base.latencyMs, len(r.classes)), 2)
		rep.set("loadgen.drift_ratio", last/first)
		rep.set("loadgen.host_slowdown", host.slowdown(0))
		rep.set("loadgen.setup_raw_s", median(setups.raw))
	}

	var mix classProbe
	var total xcql.EvalStats
	for _, c := range r.classes {
		cp, err := r.probeClass(c)
		if err != nil {
			return err
		}
		mix.compileUs += cp.compileUs
		mix.directMs += cp.directMs
		mix.roundTripMs += cp.roundTripMs
		s := cp.stats
		total.FillersScanned += s.FillersScanned
		total.HolesResolved += s.HolesResolved
		total.TSIDLookups += s.TSIDLookups
		total.LabelRangeLookups += s.LabelRangeLookups
		total.BytesMaterialized += s.BytesMaterialized
		total.NodesConstructed += s.NodesConstructed
		total.Items += s.Items
		total.ExecTime += s.ExecTime
		total.MaterializeTime += s.MaterializeTime
		total.TotalTime += s.TotalTime
	}
	n := float64(len(r.classes))
	rep.set("xcql.compile_us", mix.compileUs/n)
	rep.set("registry.api_overhead_us", (mix.roundTripMs-mix.directMs)/n*1e3)
	rep.set("xcql.fillers_per_op", float64(total.FillersScanned)/n)
	rep.set("xcql.holes_per_op", float64(total.HolesResolved)/n)
	rep.set("xcql.tsid_lookups_per_op", float64(total.TSIDLookups)/n)
	rep.set("fragment.label_lookups_per_op", float64(total.LabelRangeLookups)/n)
	rep.set("temporal.bytes_materialized_per_op", float64(total.BytesMaterialized)/n)
	rep.set("xmldom.nodes_per_op", float64(total.NodesConstructed)/n)
	rep.set("xq.items_per_op", float64(total.Items)/n)
	if total.TotalTime > 0 {
		rep.set("xcql.exec_share", float64(total.ExecTime)/float64(total.TotalTime))
		rep.set("temporal.materialize_share", float64(total.MaterializeTime)/float64(total.TotalTime))
	}
	if spec.trickleRate == 0 {
		if err := r.probeGrid(rep); err != nil {
			return err
		}
	}
	if err := probeFragments(r.load.structure, r.load.base, auctionName, queryQD, evalInstant, rep); err != nil {
		return err
	}
	if err := probeSegstoreReplay(r.load.base, rep); err != nil {
		return err
	}

	rep.printf("  share of time by layer, traced phase (%d ops, %v):\n%s", traced.requests,
		traced.wall.Round(time.Millisecond), formatShareTable(shareTable(spans)))
	path, err := writeTraceFile(cfg.outDir, traceFile{Workload: spec.name, Seed: cfg.seed, Started: epoch, Spans: spans})
	if err != nil {
		return err
	}
	rep.printf("  trace written to %s (%d spans)\n", path, len(spans))
	return nil
}
