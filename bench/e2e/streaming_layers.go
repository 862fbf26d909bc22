package main

// The traced run of a streaming workload: the saturate phase once
// untraced (the baseline the tracing overhead is measured against) and
// once with the timing decorators and the program's flight recorder on,
// then the restart and the isolated probes. Only per-layer numbers come
// from here; end-to-end metrics are never taken from a traced phase.

import (
	"os"
	"sync"
	"time"

	"xcql"
)

// spansOfPhase turns a traced phase's timestamps into the op's span
// tree: loadgen.event → stream.publish → segstore.append, and under the
// event stream.queue, stream.transit, registry.apply, registry.queue,
// registry.deliver.
func (p *pipeline) spansOfPhase() []span {
	n := p.in.numEvents()
	spans := make([]span, 0, n*15)
	ft, lastRecv := p.ft, p.lastRecv
	for e := 0; e < n; e++ {
		first := p.preFrames + 2*e
		root := len(spans)
		spans = append(spans, span{Name: "loadgen.event", Op: e, Parent: -1,
			Start: ft.pubStart[first], End: lastRecv(first + 1)})
		for k := first; k < first+2; k++ {
			pub := len(spans)
			spans = append(spans,
				span{Name: "stream.publish", Op: e, Parent: root, Start: ft.pubStart[k], End: ft.pubEnd[k]},
				span{Name: "segstore.append", Op: e, Parent: pub, Start: ft.appendStart[k], End: ft.appendEnd[k]})
			// the client applies fragments one at a time: a frame that has
			// left the server waits until the previous arrival's callback
			// returned, and only then is decoded, stored and handed on
			// (on a loopback a frame can even reach the callback before
			// Publish has returned; the clamps keep that from going
			// negative)
			free := min(ft.pubEnd[k], ft.applyStart[k])
			if prev := min(ft.applyEnd[k-1], ft.applyStart[k]); prev > free {
				spans = append(spans, span{Name: "stream.queue", Op: e, Parent: root, Start: free, End: prev})
				free = prev
			}
			spans = append(spans,
				span{Name: "stream.transit", Op: e, Parent: root, Start: free, End: ft.applyStart[k]},
				span{Name: "registry.apply", Op: e, Parent: root, Start: ft.applyStart[k], End: ft.applyEnd[k]})
			// delivery is serial per subscriber too: a result waits in the
			// registration's channel until the frame before it is out. A
			// subscriber can also hold its frame before Apply has returned
			// from the registrations after it; delivery then took no time
			// beyond the apply.
			recv := lastRecv(k)
			out := min(ft.applyEnd[k], recv)
			if prev := lastRecv(k - 1); prev > out {
				spans = append(spans, span{Name: "registry.queue", Op: e, Parent: root, Start: out, End: min(prev, recv)})
				out = min(prev, recv)
			}
			spans = append(spans, span{Name: "registry.deliver", Op: e, Parent: root, Start: out, End: recv})
		}
	}
	return spans
}

// durationsUs collects the durations of the spans named name, in µs and
// span order.
func durationsUs(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// interiorOf reads the program's own spans back from its flight
// recorder, rebased onto the phase clock.
func interiorOf(rec *xcql.FlightRecorder, epoch time.Time) []interiorSpan {
	rec.Flush()
	var out []interiorSpan
	for _, tr := range rec.Traces(xcql.TraceFilter{}) {
		for _, s := range tr.Spans {
			out = append(out, interiorSpan{
				Trace: tr.Trace, Span: s.SpanID, Parent: s.Parent, Name: s.Name, Seq: s.Seq, Reg: s.Reg,
				Start: int64(s.Start.Sub(epoch)), Dur: int64(s.Dur),
			})
		}
	}
	return out
}

// backlogSampler polls how far the client is behind the server.
type backlogSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	max  uint64
}

func startBacklogSampler(p *pipeline) *backlogSampler {
	b := &backlogSampler{stop: make(chan struct{})}
	b.done.Add(1)
	go func() {
		defer b.done.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-b.stop:
				return
			case <-tick.C:
				if latest, last := p.srv.LatestSeq(), p.cli.LastSeq(); latest > last && latest-last > b.max {
					b.max = latest - last
				}
			}
		}
	}()
	return b
}

func (b *backlogSampler) finish() uint64 {
	close(b.stop)
	b.done.Wait()
	return b.max
}

func (r *streamRun) layers() error {
	spec, cfg, events, rep := r.spec, r.cfg, r.events, r.rep
	if !cfg.endToEnd {
		// the first heavy phase of a process runs a third slower than the
		// rest; without the end-to-end phases before it, that would be the
		// baseline, and the tracing overhead would come out negative
		if err := r.saturatePhase(true); err != nil {
			return err
		}
	}
	// baseline: the saturate phase untraced, its directory kept for the
	// restart and the segstore probes
	p0, _, err := setUp(spec, cfg.seed, events, false)
	if err != nil {
		return err
	}
	before := p0.faults()
	base := p0.saturate()
	baseDir, in := p0.dir, p0.in
	defer os.RemoveAll(baseDir)
	segStats := p0.seg.Stats()
	if err := p0.finish(rep.check, "saturate (baseline)", &base, before, true); err != nil {
		return err
	}

	// traced: the same phase with the decorators and the recorder on
	p, _, err := setUp(spec, cfg.seed, events, true)
	if err != nil {
		return err
	}
	before = p.faults()
	regBefore := p.reg.Stats()
	sampler := startBacklogSampler(p)
	traced := p.saturate()
	backlog := sampler.finish()
	spans := p.spansOfPhase()
	interior := interiorOf(p.rec, p.epoch)
	regAfter, groups := p.reg.Stats(), p.reg.Groups()
	faults := p.faults().minus(before)
	labelLookups := p.labelLookups.Load()
	var frames, frameBytes int64
	for _, ws := range p.subs {
		frames += ws.frames.Load() - int64(p.preFrames)
		frameBytes += ws.frameBytes.Load()
	}
	started := p.epoch
	if err := p.finish(rep.check, "traced", &traced, before, false); err != nil {
		return err
	}

	ops := float64(events)
	appendUs := summarize(durationsUs(spans, "segstore.append"))
	publishUs := durationsUs(spans, "stream.publish")
	selfUs := make([]float64, len(publishUs))
	for i, a := range durationsUs(spans, "segstore.append") {
		selfUs[i] = publishUs[i] - a
	}
	transitUs := summarize(durationsUs(spans, "stream.transit"))
	applyUs := durationsUs(spans, "registry.apply")
	applySum := summarize(applyUs)
	q1, q4 := endMedians(applyUs, 4)
	var applyTotal float64
	for _, v := range applyUs {
		applyTotal += v
	}
	rep.set("segstore.append_us_p50", appendUs.Median)
	rep.set("segstore.append_us_p99", appendUs.P99)
	rep.set("stream.publish_us_p50", median(publishUs))
	rep.set("stream.publish_self_us_p50", median(selfUs))
	rep.set("stream.transit_us_p50", transitUs.Median)
	rep.set("stream.transit_us_p99", transitUs.P99)
	rep.set("stream.queue_us_p50", median(durationsUs(spans, "stream.queue")))
	rep.set("stream.backlog_max", float64(backlog))
	rep.set("stream.sub_drops", float64(faults.serverDrops))
	rep.set("stream.gaps", float64(faults.clientGaps))
	rep.set("stream.reconnects", float64(faults.clientReconnects))
	rep.set("registry.apply_us_p50", applySum.Median)
	rep.set("registry.apply_us_p99", applySum.P99)
	rep.set("registry.apply_us_q1", q1)
	rep.set("registry.apply_us_q4", q4)
	rep.set("registry.apply_busy_share", applyTotal/1e6/traced.wall.Seconds())
	rep.set("registry.deliver_us_p50", median(durationsUs(spans, "registry.deliver")))
	rep.set("registry.backpressure_drops", float64(faults.backpressureDrops))
	rep.set("registry.reseeds", float64(faults.reseeds))
	applies := float64(regAfter.Applies - regBefore.Applies)
	evals := float64(regAfter.SharedEvals - regBefore.SharedEvals)
	saved := float64(regAfter.SharedSaved - regBefore.SharedSaved)
	if evals+saved > 0 {
		rep.set("registry.shared_saved_ratio", saved/(evals+saved))
	}
	rep.set("registry.fanout_per_apply", float64(regAfter.Fanout-regBefore.Fanout)/applies)
	if frames > 0 {
		rep.set("registry.wire_bytes_per_delivery", float64(frameBytes)/float64(frames))
	}

	// the registry's per-group cost counters cover the preload too; the
	// preload is 1 + 2·accounts arrivals against 2·events, and is charged
	// to the ops like the rest of the history the standing state holds
	var cost xcql.EvalStats
	for _, g := range groups {
		cost.HandlerInvocations += g.Stats.HandlerInvocations
		cost.NodesConstructed += g.Stats.NodesConstructed
		cost.FillersScanned += g.Stats.FillersScanned
		cost.HolesResolved += g.Stats.HolesResolved
		cost.TSIDLookups += g.Stats.TSIDLookups
		cost.BytesMaterialized += g.Stats.BytesMaterialized
		cost.Items += g.Stats.Items
		if g.Stats.BufferHWMBytes > cost.BufferHWMBytes {
			cost.BufferHWMBytes = g.Stats.BufferHWMBytes
		}
	}
	rep.set("inc.handlers_per_arrival", float64(cost.HandlerInvocations)/float64(regAfter.Applies))
	rep.set("inc.buffer_hwm_kb", float64(cost.BufferHWMBytes)/1024)
	rep.set("inc.buffered_items", float64(traced.standingItems))
	rep.set("xmldom.nodes_per_op", float64(cost.NodesConstructed)/ops)
	rep.set("xcql.fillers_per_op", float64(cost.FillersScanned)/ops)
	rep.set("xcql.holes_per_op", float64(cost.HolesResolved)/ops)
	rep.set("xcql.tsid_lookups_per_op", float64(cost.TSIDLookups)/ops)
	rep.set("temporal.bytes_materialized_per_op", float64(cost.BytesMaterialized)/ops)
	rep.set("xq.items_per_op", float64(cost.Items)/ops)
	rep.set("fragment.label_lookups_per_op", float64(labelLookups)/ops)

	// interior spans: the recorder keeps the last recorderTraces
	// fragments, which is the sample these three are taken over
	var fsyncNs, appendNs int64
	var recompute []float64
	for _, s := range interior {
		switch s.Name {
		case "segstore.fsync":
			fsyncNs += s.Dur
		case "segstore.append":
			appendNs += s.Dur
		case "inc.recompute":
			recompute = append(recompute, float64(s.Dur)/1e3)
		}
	}
	if appendNs > 0 {
		rep.set("segstore.fsync_share", float64(fsyncNs)/float64(appendNs))
	}
	rep.set("inc.recompute_us_p50", median(recompute))
	tracedFrags := float64(min(2*events+p.preFrames, recorderTraces))
	rep.set("obs.spans_per_op", float64(len(spans))/ops+2*float64(len(interior))/tracedFrags)
	rep.set("obs.trace_overhead_share", traced.wall.Seconds()/base.wall.Seconds()-1)

	rep.set("segstore.fsyncs_per_frame", float64(segStats.Fsyncs)/float64(segStats.Appends))
	rep.set("segstore.bytes_per_frame", float64(base.diskBytes)/float64(segStats.Appends))
	rep.set("segstore.disk_amp", float64(base.diskBytes)/float64(in.wireBytes))

	if spec.restart {
		var ready []float64
		for i := 0; i < restartRuns; i++ {
			d, err := restartReady(spec, in, baseDir)
			if err != nil {
				return err
			}
			ready = append(ready, d.Seconds())
		}
		rep.set("segstore.restart_ready_s", median(ready))
	}
	if err := probeSegstore(baseDir, rep); err != nil {
		return err
	}
	all := append(append([]*xcql.Fragment(nil), in.preload...), in.events...)
	if err := probeFragments(in.structure, all, creditName, queryPassThrough, in.lastValidTime(), rep); err != nil {
		return err
	}

	if !cfg.endToEnd {
		// the timings belong to the untraced phases, which the traced run
		// otherwise has one of: the baseline is its saturate phase, and its
		// throughput sets the rate of one paced phase
		r.tput = append(r.tput, float64(base.events)/base.wall.Seconds())
		if base.firstQuarter > 0 {
			r.drift = append(r.drift, float64(base.lastQuarter)/float64(base.firstQuarter))
		}
		if err := r.pacedPhase(); err != nil {
			return err
		}
		r.setTimings()
	}

	table := shareTable(spans)
	rep.printf("  share of time by layer, traced saturate phase (%d ops, %v):\n%s", events,
		traced.wall.Round(time.Millisecond), formatShareTable(table))
	if len(interior) > traceFileInterior {
		interior = interior[len(interior)-traceFileInterior:]
	}
	path, err := writeTraceFile(cfg.outDir, traceFile{
		Workload: spec.name, Seed: cfg.seed, Started: started, Spans: spans, Interior: interior,
	})
	if err != nil {
		return err
	}
	rep.printf("  trace written to %s (%d spans, %d interior)\n", path, len(spans), len(interior))
	return nil
}

// traceFileInterior caps the program's own spans in a trace file; the
// harness's spans are always written in full.
const traceFileInterior = 20000
