package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"time"
)

// memSample is the allocator state around a measured phase.
type memSample struct{ mallocs, totalAlloc uint64 }

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{m.Mallocs, m.TotalAlloc}
}

// coolHeap collects and hands every free page back to the system, so a
// measured phase starts from the same heap whatever ran before it in the
// process: without it the phase pays a varying share of page faults,
// depending on how much of the previous phases' memory the runtime's
// background scavenger happened to have released, and its tail latency
// varies with that.
func coolHeap() { debug.FreeOSMemory() }

// retainedHeap is HeapAlloc after a forced collection: what is still
// reachable, the pipeline and its history included.
func retainedHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// streamPhase is what one measured streaming phase produced.
type streamPhase struct {
	events int
	// wall runs from the first publish to the last delta receipt
	// (saturate phases).
	wall     time.Duration
	drained  bool
	mem      memSample // deltas over the phase
	retained uint64
	// firstQuarter and lastQuarter are how long the closed loop took to
	// complete the first and the last quarter of the events (saturate
	// phases); their ratio is the phase's drift.
	firstQuarter, lastQuarter time.Duration
	// latencyMs holds one sample per result frame per subscriber in
	// publish order (paced phases: the event's due instant → receipt);
	// an event is two fragments, so it contributes two frames to each.
	latencyMs []float64
	lag       []time.Duration
	diskBytes int64
	// standingItems is how many result items the incremental engines
	// held when the phase ended.
	standingItems int
}

// setUp generates the inputs and builds a pipeline; it is the timed
// set-up step and is repeated identically before every phase.
func setUp(spec *streamSpec, seed uint64, events int, traced bool) (*pipeline, time.Duration, error) {
	t0 := time.Now()
	in := genCredit(seed, spec.accounts, events, spec.step)
	p, err := newPipeline(spec, in, traced, "")
	return p, time.Since(t0), err
}

// lastRecv is the instant result frame k reached the last subscriber to
// get it, ns since the pipeline's epoch.
func (p *pipeline) lastRecv(k int) int64 {
	last := int64(0)
	for _, ws := range p.subs {
		if ws.recv[k] > last {
			last = ws.recv[k]
		}
	}
	return last
}

// saturate is the closed loop: at most inFlight events outstanding.
func (p *pipeline) saturate() streamPhase {
	n := p.in.numEvents()
	coolHeap()
	m0 := readMem()
	t0 := p.since()
	for i := 0; i < n; i++ {
		p.win.acquire()
		p.publishEvent(i)
	}
	ph := streamPhase{events: n, drained: p.drain()}
	if ph.drained {
		// event e is complete when its second frame has reached everyone
		done := func(e int) int64 { return p.lastRecv(p.preFrames + 2*e + 1) }
		ph.wall = time.Duration(done(n-1) - t0)
		ph.firstQuarter = time.Duration(done(n/4-1) - t0)
		ph.lastQuarter = time.Duration(done(n-1) - done(n-n/4-1))
	} else {
		ph.wall = time.Duration(p.since() - t0)
	}
	m1 := readMem()
	ph.mem = memSample{m1.mallocs - m0.mallocs, m1.totalAlloc - m0.totalAlloc}
	ph.retained = retainedHeap()
	return ph
}

// paced is the open loop at rate events per second; latency counts
// from each event's due instant. A send still waits for a slot of the
// closed loop's window: at the paced rates none is ever taken, but after a
// stall of the host the generator sends everything overdue at once, and
// more than inFlight events overflow the registry's delivery buffer, whose
// reseeds the phase then measures for the rest of its length. The wait is
// inside the send, after the due instant, so it counts as latency.
func (p *pipeline) paced(rate float64) streamPhase {
	n := p.in.numEvents()
	coolHeap()
	sched := openLoop(wallClock{}, n, rate, func(i int) {
		p.win.acquire()
		p.publishEvent(i)
	})
	ph := streamPhase{events: n, drained: p.drain(), lag: sched.GeneratorLag}
	ph.latencyMs = make([]float64, 0, 2*n*len(p.subs))
	for e := 0; e < n; e++ {
		due := int64(sched.Due[e].Sub(p.epoch))
		for k := p.preFrames + 2*e; k < p.preFrames+2*e+2; k++ {
			for _, ws := range p.subs {
				if int64(k) < ws.frames.Load() {
					ph.latencyMs = append(ph.latencyMs, float64(ws.recv[k]-due)/1e6)
				}
			}
		}
	}
	return ph
}

// finish checks a phase's output and tears its pipeline down.
func (p *pipeline) finish(c *checker, phase string, ph *streamPhase, before transportFaults, keepDir bool) error {
	c.streamingPhase(phase, ph.events, p.deliveries(), p.faults().minus(before))
	var err error
	if ph.standingItems, err = p.verifyStanding(c); err != nil {
		p.close(false)
		return fmt.Errorf("%s: %w", phase, err)
	}
	if ph.diskBytes, err = dirBytes(p.dir); err != nil {
		p.close(false)
		return err
	}
	return p.close(keepDir)
}

func usDuration(us float64) time.Duration { return time.Duration(us * 1e3) }
func msDuration(ms float64) time.Duration { return time.Duration(ms * 1e6) }

func durationsToUs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

// runStreaming runs one streaming workload: the end-to-end phases, the
// traced phases, or both.
func runStreaming(spec *streamSpec, cfg runConfig, rep *report) error {
	events := int(spec.size * float64(cfg.seconds))
	pacedEvents := int(spec.pacedSize * float64(cfg.seconds))
	if min(events, pacedEvents) < 8 {
		return fmt.Errorf("%s: %d seconds at %.0f events per second of run is too short to measure", spec.name, cfg.seconds, min(spec.size, spec.pacedSize))
	}
	rep.printf("  %d events (%d fragments) over %d accounts, then %d events paced at %.0f%% of the closed loop's rate, %d registrations\n",
		events, 2*events, spec.accounts, pacedEvents, 100*spec.paceShare, len(spec.regs))
	run := &streamRun{spec: spec, cfg: cfg, events: events, pacedEvents: pacedEvents, rep: rep}
	if cfg.endToEnd {
		if err := run.endToEnd(); err != nil {
			return err
		}
	}
	if cfg.layers {
		if err := run.layers(); err != nil {
			return err
		}
	}
	return nil
}

// saturateRuns and pacedRuns are how many times each phase is repeated.
const (
	saturateRuns = 3
	pacedRuns    = 2
)

// drySetUps is how many extra set-ups a run performs only to time them,
// so setup_s is a median and not a single draw.
const drySetUps = 5

// bracketUnits is how many units of reference work run on either side of
// a set-up; the set-up is reported at the speed they show (see host.go).
const bracketUnits = 12

// streamRun is one run of a streaming workload: its frozen shape and the
// per-phase values every metric is the median of.
type streamRun struct {
	spec                *streamSpec
	cfg                 runConfig
	events, pacedEvents int
	rep                 *report
	host                hostProbe

	setups, setupsRaw         []float64 // at nominal host speed, as measured
	tput, drift               []float64
	allocs, allocKB, retained []float64
	diskAmp                   []float64
	p50, mean, p99, lagP99    []float64
	satWall                   time.Duration
	latencySamples            int
}

// setUp builds a fresh pipeline between two samples of the host's speed
// and records how long that took, as measured and at nominal speed.
func (r *streamRun) setUp(events int) (*pipeline, error) {
	from := r.host.mark()
	r.host.sample(bracketUnits)
	p, d, err := setUp(r.spec, r.cfg.seed, events, false)
	if err != nil {
		return nil, err
	}
	r.host.sample(bracketUnits)
	r.setupsRaw = append(r.setupsRaw, d.Seconds())
	r.setups = append(r.setups, d.Seconds()/r.host.slowdown(from))
	return p, nil
}

// saturatePhase runs the closed loop once on a fresh pipeline, checks it
// and, unless it is the warm-up, records its measurements.
func (r *streamRun) saturatePhase(warmUp bool) error {
	p, err := r.setUp(r.events)
	if err != nil {
		return err
	}
	before := p.faults()
	sat := p.saturate()
	wireBytes := p.in.wireBytes
	if err := p.finish(r.rep.check, "saturate", &sat, before, false); err != nil || warmUp {
		return err
	}
	r.satWall += sat.wall
	r.tput = append(r.tput, float64(sat.events)/sat.wall.Seconds())
	if sat.firstQuarter > 0 {
		r.drift = append(r.drift, float64(sat.lastQuarter)/float64(sat.firstQuarter))
	}
	r.allocs = append(r.allocs, float64(sat.mem.mallocs)/float64(sat.events))
	r.allocKB = append(r.allocKB, float64(sat.mem.totalAlloc)/1024/float64(sat.events))
	r.retained = append(r.retained, float64(sat.retained)/(1<<20))
	r.diskAmp = append(r.diskAmp, float64(sat.diskBytes)/float64(wireBytes))
	return nil
}

// pacedRate is the open loop's rate: the workload's share of what the
// closed loop completed in this run. A fixed rate would sit at a different
// distance from capacity on every host and in every stretch of the same
// host's day — the standing-window run that is at 60 % of its end-of-run
// capacity on a quiet afternoon is past saturation when a neighbour halves
// the machine, and an open loop past saturation measures its own backlog
// (its drift_ratio read 9 to 49 in ten runs of one set).
func (r *streamRun) pacedRate() float64 { return r.spec.paceShare * median(r.tput) }

// pacedPhase runs the open loop once on a fresh pipeline and checks it.
// A phase whose schedule the generator could not keep measures the
// host's noise as much as the system: it is discarded unchecked and
// repeated once. A second invalid phase is kept and flagged — latency
// counts from the due instants, so the lag is inside it, not lost.
func (r *streamRun) pacedPhase() error {
	rate := r.pacedRate()
	for attempt := 1; ; attempt++ {
		p, err := r.setUp(r.pacedEvents)
		if err != nil {
			return err
		}
		before := p.faults()
		pac := p.paced(rate)
		lat, lag := summarize(pac.latencyMs), summarize(durationsToUs(pac.lag))
		lagErr := checkLag(usDuration(lag.Median), msDuration(lat.Median))
		if lagErr != nil && attempt < 2 {
			r.rep.printf("  paced attempt %d discarded: %v\n", attempt, lagErr)
			if err := p.close(false); err != nil {
				return err
			}
			continue
		}
		if lagErr != nil {
			r.rep.printf("  WARNING: %v; kept, the latencies below include that lag\n", lagErr)
		}
		if err := p.finish(r.rep.check, "paced", &pac, before, false); err != nil {
			return err
		}
		r.p50, r.mean, r.p99 = append(r.p50, lat.Median), append(r.mean, lat.Mean), append(r.p99, lat.P99)
		r.lagP99 = append(r.lagP99, lag.P99)
		r.latencySamples += lat.N
		r.rep.printf("  paced run at %.0f events/s: %s; generator lag p99 %.0f µs\n", rate, lat.describe(), lag.P99)
		noteFewSamples(r.rep, lat)
		return nil
	}
}

// setTimings reports the run's timings: the set-up (the one bounded time)
// and everything the loops measured, which is printed without a bound
// (see README, "Steadiness").
func (r *streamRun) setTimings() {
	rep := r.rep
	rep.set("setup_s", median(r.setups))
	rep.set("loadgen.setup_raw_s", median(r.setupsRaw))
	rep.set("loadgen.host_slowdown", r.host.slowdown(0))
	rep.set("loadgen.throughput_ops_s", median(r.tput))
	rep.set("loadgen.drift_ratio", median(r.drift))
	rep.set("loadgen.latency_p50_ms", median(r.p50))
	rep.set("loadgen.latency_mean_ms", median(r.mean))
	rep.set("loadgen.latency_p99_ms", median(r.p99))
	rep.set("loadgen.late_us_p99", median(r.lagP99))
}

func (r *streamRun) endToEnd() error {
	for i := 0; i < drySetUps; i++ {
		p, err := r.setUp(r.events)
		if err != nil {
			return err
		}
		if err := p.close(false); err != nil {
			return err
		}
	}
	// One saturate run goes first and is only checked, not measured: the
	// first heavy phase of a process runs a third slower than the rest
	// (the runtime is still growing its heap and stacks). The saturate
	// runs go back to back and before the paced ones: a paced phase leaves
	// the processors idle most of the time, and a saturate run that
	// follows one completes up to a third fewer events per second than one
	// that follows another saturate run, by a different amount every time.
	if err := r.saturatePhase(true); err != nil {
		return err
	}
	for i := 0; i < saturateRuns; i++ {
		if err := r.saturatePhase(false); err != nil {
			return err
		}
	}
	for i := 0; i < pacedRuns; i++ {
		if err := r.pacedPhase(); err != nil {
			return err
		}
	}
	r.setTimings()
	rep := r.rep
	rep.set("allocs_per_op", median(r.allocs))
	rep.set("alloc_kb_per_op", median(r.allocKB))
	rep.set("retained_heap_mb", median(r.retained))
	rep.set("segstore.disk_amp", median(r.diskAmp))
	rep.printf("  saturate: %d × %d events in %v (%.0f ops/s); paced: %d × %d events, %d latency samples\n",
		saturateRuns, r.events, r.satWall.Round(time.Millisecond), r.tput, pacedRuns, r.pacedEvents, r.latencySamples)
	return nil
}

// restartRuns is how many restarts restart_ready_s is the median of.
const restartRuns = 3

// restartReady reopens the segstore directory of a finished phase,
// recovers the server from it and measures how long a fresh client and
// its re-registered queries take to hold the whole standing result.
func restartReady(spec *streamSpec, in *creditStream, dir string) (time.Duration, error) {
	t0 := time.Now()
	p, err := newPipeline(spec, in, false, dir)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, p.close(true)
}
