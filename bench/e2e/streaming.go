package main

// The streaming pipeline: publisher → stream.Server (write-through to a
// segstore with the default fsync per append) → TCP → stream.Client →
// registry → WebSocket subscribers, built from public entry points only
// and torn down completely after every phase.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"xcql"
	"xcql/internal/registry"
)

// creditName is the stream name the queries address as stream("credit").
const creditName = "credit"

// Queries of the streaming workloads.
const (
	queryPassThrough = `for $t in stream("credit")//transaction return $t`
	queryFraud       = `for $a in stream("credit")//account where sum($a/transaction?[now-PT1H,now]/amount) >= 5000 return $a/@id`
	queryFilter      = `for $t in stream("credit")//transaction where $t/amount > 500 return $t/amount`
)

// regSpec is one standing registration of a streaming workload.
type regSpec struct {
	query string
	mode  string
	// ws registrations subscribe over WebSocket; the others are
	// in-process channel registrations drained by one goroutine.
	ws bool
}

// streamSpec freezes a streaming workload's shape.
type streamSpec struct {
	name     string
	accounts int
	step     time.Duration
	// size and pacedSize are the lengths of the stream in events per
	// second of the run: a saturate phase publishes size × seconds events,
	// a paced phase pacedSize × seconds.
	size, pacedSize float64
	// paceShare sets the open-loop rate of the paced phase, as a share of
	// the rate the closed loop completed in the same run.
	paceShare float64
	regs      []regSpec
	restart   bool
}

// inFlight bounds the closed loop of the saturate phase, in events. Each
// event is two fragments and every fragment is one delivery per
// registration, so 32 events fill the registry's default delivery buffer
// of 64 exactly; a wider loop overflows it by construction and measures
// backpressure reseeds, not the path.
const inFlight = 32

// preloadInFlight bounds the fragments outstanding while set-up publishes
// the initial document.
const preloadInFlight = 32

// recorderTraces is the ring of the program's flight recorder in traced
// phases: interior spans are aggregated over the last that many fragments.
const recorderTraces = 1024

// drainTimeout is how long a phase waits for outstanding deltas before
// counting them as missing.
const drainTimeout = 10 * time.Second

// fragTimes are the per-fragment timestamps of a phase, nanoseconds
// since its start, indexed by sequence number − 1. The slices are
// allocated up front; every slot has exactly one writer.
type fragTimes struct {
	pubStart, pubEnd       []int64
	appendStart, appendEnd []int64
	applyStart, applyEnd   []int64
}

func newFragTimes(n int) *fragTimes {
	mk := func() []int64 { return make([]int64, n) }
	return &fragTimes{mk(), mk(), mk(), mk(), mk(), mk()}
}

// wsSub is one WebSocket subscriber and what its reader observed.
type wsSub struct {
	sub  *registry.Subscriber
	done chan struct{}
	// recv[k] is the receipt instant of the k-th result frame, ns since
	// the pipeline's epoch; written by the reader only, read after the
	// frame's event was acknowledged through the pipeline's counters.
	recv     []int64
	frames   atomic.Int64
	degraded atomic.Int64
	errored  atomic.Int64
	items    atomic.Int64 // delta items received
	// frameBytes sums the JSON payload sizes of the event frames (traced
	// phases only: the frame is re-encoded to learn its size).
	frameBytes atomic.Int64
}

// pipeline is one live instance of the streaming path.
type pipeline struct {
	spec  *streamSpec
	in    *creditStream
	epoch time.Time

	dir     string
	seg     *xcql.SegStore
	srv     *xcql.Server
	tcpLn   net.Listener
	tcpDone chan struct{}
	cli     *xcql.Client
	eng     *xcql.Engine
	reg     *xcql.QueryRegistry
	httpSrv *http.Server
	httpLn  net.Listener
	httpErr chan error

	subs   []*wsSub
	inproc []*xcql.QueryRegistration
	// inprocSrc[i] is the query text of inproc[i].
	inprocSrc []string
	// the single drainer of the in-process registrations
	draining  bool
	drainKick chan struct{}
	drainStop chan struct{}
	drainDone chan struct{}
	// inBad counts degraded or errored in-process deliveries.
	inBad atomic.Int64

	// clockNs is the registry clock: the highest validTime handed to the
	// registry so far, so evaluation instants follow the fragment
	// timeline and never the wall clock.
	clockNs atomic.Int64

	// ft is non-nil in traced phases only.
	ft  *fragTimes
	rec *xcql.FlightRecorder
	// labelLookups accumulates a QaC++ registration's per-arrival label
	// fetches (traced phases only).
	labelProbe   *xcql.Query
	labelLookups atomic.Int64
	// applied counts the arrivals whose callback has returned; waiting
	// for it orders the callback's timestamps before their reader.
	applied atomic.Int64

	// per-event acknowledgement: the reader that delivers the last
	// outstanding delta of an event completes it.
	preFrames int
	parties   int
	acks      []atomic.Int32
	completed atomic.Int64
	allDone   chan struct{}
	// win bounds the events in flight, in both loops.
	win window
}

func (p *pipeline) since() int64 { return int64(time.Since(p.epoch)) }

func (p *pipeline) clock() time.Time { return time.Unix(0, p.clockNs.Load()).UTC() }

// timedLog decorates the durable log of a traced phase.
type timedLog struct {
	xcql.DurableLog
	p *pipeline
}

func (t timedLog) Append(f *xcql.Fragment) error {
	i := int(f.Seq) - 1
	t.p.ft.appendStart[i] = t.p.since()
	err := t.DurableLog.Append(f)
	t.p.ft.appendEnd[i] = t.p.since()
	return err
}

// newPipeline builds the whole path and publishes the preload through
// it, returning once every subscriber has seen the preload's results.
// With recoverDir set it is a restart instead: the segstore in that
// directory is reopened, the server is recovered from it, and the call
// returns once the fresh client's subscribers hold the whole replayed
// history.
func newPipeline(spec *streamSpec, in *creditStream, traced bool, recoverDir string) (p *pipeline, err error) {
	p = &pipeline{
		spec:      spec,
		in:        in,
		epoch:     time.Now(),
		dir:       recoverDir,
		preFrames: len(in.preload),
		acks:      make([]atomic.Int32, in.numEvents()),
		allDone:   make(chan struct{}),
		win:       newWindow(inFlight),
		drainKick: make(chan struct{}, 1),
		drainStop: make(chan struct{}),
		drainDone: make(chan struct{}),
	}
	defer func() {
		if err != nil {
			p.close(recoverDir != "")
		}
	}()
	// an event is delivered once every subscriber and, when there are
	// in-process registrations, their drainer have seen its delta
	inproc := 0
	for _, rs := range spec.regs {
		if rs.ws {
			p.parties++
		} else {
			inproc = 1
		}
	}
	p.parties += inproc
	total := len(in.preload) + len(in.events)
	if traced {
		p.ft = newFragTimes(total)
		p.rec = xcql.NewFlightRecorder(xcql.FlightRecorderOptions{
			SampleEvery: 1, Capacity: recorderTraces, MaxSpansPerTrace: 256,
		})
	}
	if p.dir == "" {
		if p.dir, err = os.MkdirTemp("", "xcql-e2e-seg-*"); err != nil {
			return p, err
		}
	}
	if p.seg, _, err = xcql.OpenSegStore(p.dir, xcql.SegStoreOptions{}); err != nil {
		return p, fmt.Errorf("open segstore: %w", err)
	}
	if recoverDir != "" {
		if p.srv, err = xcql.RecoverServer(creditName, in.structure, p.seg); err != nil {
			return p, fmt.Errorf("recover server: %w", err)
		}
		if err = p.serveAndDial(false); err != nil {
			return p, err
		}
		if err = p.waitReplayed(total); err != nil {
			return p, fmt.Errorf("restart: %w", err)
		}
		return p, nil
	}
	p.srv = xcql.NewServer(creditName, in.structure)
	var dlog xcql.DurableLog = p.seg
	if traced {
		dlog = timedLog{p.seg, p}
		p.seg.SetFlightRecorder(p.rec)
		p.srv.SetFlightRecorder(p.rec)
	}
	p.srv.AttachDurable(dlog)
	if err = p.serveAndDial(traced); err != nil {
		return p, err
	}
	if err = p.registerAll(traced, false); err != nil {
		return p, err
	}
	// installed last: everything the callback and the goroutines behind
	// it read is in place before the first fragment can reach them
	p.cli.OnFragment(p.onFragment)
	// the preload is not an op, but it travels the same bounded queues:
	// keep it inside the default delivery buffer like the closed loop does
	for i, f := range in.preload {
		p.srv.Publish(f)
		if err = p.waitFrames(int64(i + 1 - preloadInFlight)); err != nil {
			return p, fmt.Errorf("preload: %w", err)
		}
	}
	if err = p.waitFrames(int64(len(in.preload))); err != nil {
		return p, fmt.Errorf("preload: %w", err)
	}
	return p, nil
}

// serveAndDial starts the TCP listener, dials the client and wires the
// registry and its HTTP front.
func (p *pipeline) serveAndDial(traced bool) error {
	var err error
	if p.tcpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	p.tcpDone = make(chan struct{})
	go func() {
		defer close(p.tcpDone)
		_ = xcql.ServeTCP(p.srv, p.tcpLn) // returns when the listener closes
	}()
	if p.cli, err = xcql.Dial(p.tcpLn.Addr().String(), xcql.DialOptions{Reconnect: true}); err != nil {
		return fmt.Errorf("dial stream: %w", err)
	}
	p.eng = xcql.NewEngine()
	p.eng.AttachClient(p.cli)
	p.reg = p.eng.Registry()
	p.reg.SetClock(p.clock)
	p.clockNs.Store(eventBase.UnixNano())
	api := p.eng.ServeQueryAPI()
	api.SetClock(p.clock)
	if traced {
		p.cli.SetFlightRecorder(p.rec)
		p.eng.SetFlightRecorder(p.rec)
	}
	p.cli.OnGap(func(g xcql.Gap) { p.reg.InvalidateAll(g.String()) })

	if p.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	p.httpSrv = &http.Server{Handler: api}
	p.httpErr = make(chan error, 1)
	go func() { p.httpErr <- p.httpSrv.Serve(p.httpLn) }()
	return nil
}

// registerAll registers every standing query of the workload and starts
// the readers and the drainer. With inprocOnly the WebSocket
// registrations are made in-process like the rest.
func (p *pipeline) registerAll(traced, inprocOnly bool) error {
	frames := len(p.in.preload) + len(p.in.events)
	for _, rs := range p.spec.regs {
		if rs.ws && !inprocOnly {
			sub, err := registry.DialSubscribe(p.httpLn.Addr().String(),
				registry.RegisterRequest{Query: rs.query, Mode: rs.mode, Incremental: true}, 5*time.Second)
			if err != nil {
				return fmt.Errorf("subscribe %s: %w", rs.mode, err)
			}
			ws := &wsSub{sub: sub, done: make(chan struct{}), recv: make([]int64, frames)}
			p.subs = append(p.subs, ws)
			go p.readSub(ws)
			continue
		}
		mode, err := xcql.ParseMode(rs.mode)
		if err != nil {
			return err
		}
		q, err := p.eng.Compile(rs.query, mode)
		if err != nil {
			return fmt.Errorf("compile %s: %w", rs.mode, err)
		}
		r, err := p.reg.Register(q, xcql.RegistryOptions{Incremental: true})
		if err != nil {
			return fmt.Errorf("register %s: %w", rs.mode, err)
		}
		p.inproc = append(p.inproc, r)
		p.inprocSrc = append(p.inprocSrc, rs.query)
		if traced && p.labelProbe == nil && rs.mode == "QaC++" {
			p.labelProbe = q
		}
	}
	p.draining = true
	go p.drainInproc()
	return nil
}

// onFragment is the client's arrival callback: what Registry.AttachClient
// installs, plus the clock and (in traced phases) the timestamps.
func (p *pipeline) onFragment(f *xcql.Fragment) {
	if ns := f.ValidTime.UnixNano(); ns > p.clockNs.Load() {
		p.clockNs.Store(ns)
	}
	if p.ft == nil {
		p.reg.Apply(f)
	} else {
		i := int(f.Seq) - 1
		p.ft.applyStart[i] = p.since()
		p.reg.Apply(f)
		p.ft.applyEnd[i] = p.since()
		if p.labelProbe != nil {
			p.labelLookups.Add(p.labelProbe.LastStats().LabelRangeLookups)
		}
	}
	p.applied.Add(1)
	select {
	case p.drainKick <- struct{}{}:
	default:
	}
}

// readSub is a subscriber's reader: it stamps every result frame and
// acknowledges the event each transaction's frame completes.
func (p *pipeline) readSub(ws *wsSub) {
	defer close(ws.done)
	for {
		res, err := ws.sub.Next()
		if err != nil {
			return // the connection was closed: by close(), or under us, which the missing deltas report
		}
		now := p.since()
		k := int(ws.frames.Load())
		if k < len(ws.recv) {
			ws.recv[k] = now
		}
		if res.Degraded != "" {
			ws.degraded.Add(1)
		}
		if res.Err != "" {
			ws.errored.Add(1)
		}
		ws.items.Add(int64(len(res.Delta)))
		if p.ft != nil && k >= p.preFrames {
			if b, err := json.Marshal(res); err == nil {
				ws.frameBytes.Add(int64(len(b)))
			}
		}
		ws.frames.Add(1)
		// frame preFrames+2e+1 carries event e's transaction
		if rel := k - p.preFrames; rel >= 0 && rel%2 == 1 {
			p.ack(rel / 2)
		}
	}
}

// ack records that one party (a subscriber's reader, or the in-process
// drainer) has seen event e's delta; the last party completes the event.
func (p *pipeline) ack(e int) {
	if e >= len(p.acks) || int(p.acks[e].Add(1)) != p.parties {
		return
	}
	p.win.release()
	if int(p.completed.Add(1)) == len(p.acks) {
		close(p.allDone)
	}
}

// drainInproc is the one goroutine that empties every in-process
// registration's channel: after each arrival it sweeps them all, then
// acknowledges the events every one of them has now delivered — so the
// closed loop bounds their queues exactly as it bounds the subscribers'.
func (p *pipeline) drainInproc() {
	defer close(p.drainDone)
	counts := make([]int, len(p.inproc))
	acked := 0
	sweep := func() {
		for i, r := range p.inproc {
			for more := true; more; {
				select {
				case res, ok := <-r.C():
					if !ok {
						more = false
						break
					}
					counts[i]++
					if res.Degraded != "" || res.Err != nil {
						p.inBad.Add(1)
					}
				default:
					more = false
				}
			}
		}
		if len(counts) == 0 {
			return
		}
		low := counts[0]
		for _, c := range counts[1:] {
			if c < low {
				low = c
			}
		}
		for ; acked < (low-p.preFrames)/2; acked++ {
			p.ack(acked)
		}
	}
	for {
		select {
		case <-p.drainKick:
			sweep()
		case <-p.drainStop:
			sweep()
			return
		}
	}
}

// waitClock is waitFor's clock; a self-test replaces it.
var waitClock = time.Now

// waitFor polls cond until it holds and reports whether it did within
// drainTimeout of polling. Only time the poller was running counts towards
// the limit: a step between two polls adds at most stallCap to it, so a
// process that was not scheduled for seconds (a paused guest, a host that
// gave the processors to someone else) does not find its deadline gone
// when it wakes up, before the goroutine it waits for has run at all.
func waitFor(cond func() bool) bool {
	const stallCap = 10 * time.Millisecond
	var waited time.Duration
	for last := waitClock(); !cond(); {
		now := waitClock()
		waited += min(now.Sub(last), stallCap)
		last = now
		if waited >= drainTimeout {
			return false
		}
		time.Sleep(50 * time.Microsecond)
	}
	return true
}

// waitFrames blocks until every subscriber has received n result frames.
func (p *pipeline) waitFrames(n int64) error {
	if !waitFor(func() bool {
		for _, ws := range p.subs {
			if ws.frames.Load() < n {
				return false
			}
		}
		return true
	}) {
		return fmt.Errorf("subscribers did not reach %d frames within %v (%s)", n, drainTimeout, p.faults())
	}
	return nil
}

// waitReplayed is the restart's readiness sequence: the fresh client
// first catches up on the whole recovered history, then the queries are
// re-registered and one fragment-less evaluation seeds them; the restart
// is ready when every registration holds its standing result (checked on
// the pass-through query: one item per event). Registering
// before the catch-up instead would push the whole replay through the
// default delivery buffers with nothing to pace it. Every registration is
// in-process here: the first delta of a re-registered query is its whole
// standing result, and a WebSocket subscriber refuses a frame above 1 MiB,
// which the 6 000 transactions of ingest-fanout exceed.
func (p *pipeline) waitReplayed(total int) error {
	if !waitFor(func() bool { return p.cli.Stats().Received >= int64(total) }) {
		return fmt.Errorf("client applied %d of %d recovered fragments within %v",
			p.cli.Stats().Received, total, drainTimeout)
	}
	if err := p.registerAll(false, true); err != nil {
		return err
	}
	p.clockNs.Store(p.in.lastValidTime().UnixNano())
	p.reg.Evaluate()
	for i, r := range p.inproc {
		if p.inprocSrc[i] != queryPassThrough {
			continue
		}
		if got, want := len(r.ItemsSnapshot()), p.in.numEvents(); got != want {
			return fmt.Errorf("restart: registration %d holds %d items of %d", r.ID(), got, want)
		}
	}
	return nil
}

// publishEvent sends event i's two fragments.
func (p *pipeline) publishEvent(i int) {
	for k := 2 * i; k < 2*i+2; k++ {
		if p.ft != nil {
			j := p.preFrames + k
			p.ft.pubStart[j] = p.since()
			p.srv.Publish(p.in.events[k])
			p.ft.pubEnd[j] = p.since()
		} else {
			p.srv.Publish(p.in.events[k])
		}
	}
}

// drain waits for the outstanding deltas; it reports whether every
// event was delivered to every party within the timeout. A delta can be
// out before the callback that produced it has returned, so drain also
// waits for the last callback.
func (p *pipeline) drain() bool {
	allDone := func() bool {
		select {
		case <-p.allDone:
			return true
		default:
			return false
		}
	}
	if !waitFor(allDone) {
		return false
	}
	total := int64(len(p.in.preload) + len(p.in.events))
	return waitFor(func() bool { return p.applied.Load() >= total })
}

// faults snapshots the loss counters of every layer.
func (p *pipeline) faults() transportFaults {
	ss, cs, rs := p.srv.Stats(), p.cli.Stats(), p.reg.Stats()
	return transportFaults{
		serverDrops:       ss.Dropped,
		storageErrors:     ss.StorageErrors,
		clientGaps:        int64(cs.Gaps),
		clientReconnects:  cs.Reconnects,
		backpressureDrops: rs.BackpressureDrops,
		reseeds:           rs.Reseeds,
	}
}

func (a transportFaults) minus(b transportFaults) transportFaults {
	return transportFaults{
		serverDrops:       a.serverDrops - b.serverDrops,
		clientGaps:        a.clientGaps - b.clientGaps,
		clientReconnects:  a.clientReconnects - b.clientReconnects,
		backpressureDrops: a.backpressureDrops - b.backpressureDrops,
		reseeds:           a.reseeds - b.reseeds,
		storageErrors:     a.storageErrors - b.storageErrors,
	}
}

// deliveries summarizes what each subscriber saw, for the checker.
func (p *pipeline) deliveries() []delivery {
	out := make([]delivery, len(p.subs))
	for i, ws := range p.subs {
		events := (int(ws.frames.Load()) - p.preFrames) / 2
		if events < 0 {
			events = 0
		}
		out[i] = delivery{completed: events, degraded: int(ws.degraded.Load()), errored: int(ws.errored.Load())}
	}
	return out
}

// verifyStanding compares every registration's standing result with a
// full QaC evaluation over the client's final store at the final instant
// (QaC, not CaQ: see adhocRig.references). A WebSocket registration's
// handle lives inside the API, so each distinct (query, plan) is read
// through a late in-process registration, which adopts the shared
// incremental engine the subscribers were served from. It returns the
// number of items those engines hold.
func (p *pipeline) verifyStanding(c *checker) (items int, err error) {
	at := p.clock()
	want := map[string][]string{}
	seen := map[string]bool{}
	for _, rs := range p.spec.regs {
		key := rs.mode + " " + rs.query
		if seen[key] {
			continue
		}
		seen[key] = true
		ref, ok := want[rs.query]
		if !ok {
			q, err := p.eng.Compile(rs.query, xcql.QaC)
			if err != nil {
				return 0, err
			}
			seq, err := q.Eval(at)
			if err != nil {
				return 0, fmt.Errorf("reference evaluation: %w", err)
			}
			ref = itemStrings(seq)
			want[rs.query] = ref
		}
		mode, err := xcql.ParseMode(rs.mode)
		if err != nil {
			return 0, err
		}
		q, err := p.eng.Compile(rs.query, mode)
		if err != nil {
			return 0, err
		}
		probe, err := p.reg.Register(q, xcql.RegistryOptions{Incremental: true})
		if err != nil {
			return 0, err
		}
		got := itemStrings(probe.ItemsSnapshot())
		probe.Close()
		items += len(got)
		c.standing(key, got, ref)
	}
	for i, r := range p.inproc {
		if got, ref := len(r.ItemsSnapshot()), len(want[p.inprocSrc[i]]); got != ref {
			c.fail("standing-mismatch", fmt.Sprintf("in-process registration %d (%s): %d items, reference has %d",
				r.ID(), r.Query().Mode, got, ref))
		}
	}
	if bad := p.inBad.Load(); bad > 0 {
		c.fail("degraded", fmt.Sprintf("%d in-process deliveries were degraded or errored", bad))
	}
	return items, nil
}

// close tears the pipeline down in dependency order and waits for every
// goroutine it started. With keepDir the segstore directory survives for
// the restart phase; the caller removes it.
func (p *pipeline) close(keepDir bool) error {
	var errs []error
	for _, ws := range p.subs {
		ws.sub.Close()
	}
	for _, ws := range p.subs {
		<-ws.done
	}
	for _, r := range p.inproc {
		r.Close()
	}
	if p.draining {
		close(p.drainStop)
		<-p.drainDone
	}
	if p.httpSrv != nil {
		errs = append(errs, p.httpSrv.Close())
		if err := <-p.httpErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if p.cli != nil {
		p.cli.Close()
	}
	if p.srv != nil {
		p.srv.Close()
	}
	if p.tcpLn != nil {
		p.tcpLn.Close()
		<-p.tcpDone
	}
	if p.seg != nil {
		errs = append(errs, p.seg.Close())
	}
	if p.dir != "" && !keepDir {
		errs = append(errs, os.RemoveAll(p.dir))
	}
	return errors.Join(errs...)
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
	}
	return total, nil
}
