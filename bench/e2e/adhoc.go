package main

// The ad-hoc path: POST /v1/eval against an XMark store, either loaded
// directly and quiescent (adhoc-history) or held by a stream client fed
// over TCP with a trickle of writes beside the reads
// (adhoc-under-ingest).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"xcql"
	"xcql/internal/xmark"
)

const auctionName = "auction"

// queryQD is the descendant-step row the label index serves directly.
const queryQD = `for $c in stream("auction")//closed_auction return $c/price`

// adhocQueries are Figure 4's queries plus QD, in report order.
var adhocQueries = []struct{ name, src string }{
	{"Q1", xmark.QueryQ1()},
	{"Q2", xmark.QueryQ2()},
	{"Q5", xmark.QueryQ5()},
	{"QD", queryQD},
}

// planKeys maps a plan's wire name to its metric-name suffix.
var planKeys = map[string]string{"CaQ": "caq", "QaC": "qac", "QaC+": "qacp", "QaC++": "qacpp"}

// adhocModes are the plans the request mix runs under.
var adhocModes = []string{"QaC+", "QaC++"}

// queryClass is one (query, plan) pair of the request mix.
type queryClass struct {
	query int // index into adhocQueries
	mode  string
	body  []byte // the POST /v1/eval request
}

func (c queryClass) String() string { return adhocQueries[c.query].name + "." + planKeys[c.mode] }

// adhocSpec freezes an ad-hoc workload's shape.
type adhocSpec struct {
	name string
	// trickleRate, when non-zero, makes the store a stream client's, fed
	// over TCP from a non-durable server, and sizes the measured phase:
	// trickleRate × seconds fragments are published through it, one before
	// every writeEvery-th request, and the phase ends with the last of them.
	trickleRate float64
}

var adhocSpecs = map[string]*adhocSpec{
	"adhoc-history":      {name: "adhoc-history"},
	"adhoc-under-ingest": {name: "adhoc-under-ingest", trickleRate: 100},
}

// writeEvery: adhoc-under-ingest writes before every second request. The
// classes alternate QaC+ and QaC++, and each plan memoizes on the store's
// generation in an index of its own, so every request finds its index
// invalidated exactly once. A writer on a timer beside the reads (the
// issue's form) leaves it to the host's speed how many reads fall between
// two writes: about half of them paid a rebuild, the per-class medians sat
// on the edge between the two modes, and latency_p50_ms moved by a fifth
// from run to run.
const writeEvery = 2

// evalResponse is the body of a successful POST /v1/eval.
type evalResponse struct {
	At    string   `json:"at"`
	Items []string `json:"items"`
}

// phaseSink collects the engine's phase spans (parse, translate, eval,
// execute, materialize) in a traced phase; it is the harness's
// implementation of the engine's TraceSink seam.
type phaseSink struct {
	mu    sync.Mutex
	spans []xcql.SpanRecord
}

func (s *phaseSink) Span(name, detail string, start time.Time, d time.Duration) {
	s.mu.Lock()
	s.spans = append(s.spans, xcql.SpanRecord{Name: name, Start: start, Dur: d})
	s.mu.Unlock()
}

func (s *phaseSink) snapshot() []xcql.SpanRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spans
}

// handlerTimes records when the API handler ran in a traced phase; the
// lock orders the server's appends with the reader.
type handlerTimes struct {
	mu         sync.Mutex
	start, end []time.Time
}

func (h *handlerTimes) add(start, end time.Time) {
	h.mu.Lock()
	h.start, h.end = append(h.start, start), append(h.end, end)
	h.mu.Unlock()
}

// snapshot returns the handler intervals recorded so far.
func (h *handlerTimes) snapshot() (start, end []time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.start, h.end
}

// adhocRig is one live instance of the ad-hoc path.
type adhocRig struct {
	spec *adhocSpec
	load *auctionLoad

	eng     *xcql.Engine
	store   *xcql.Store
	srv     *xcql.Server // under-ingest only
	tcpLn   net.Listener
	tcpDone chan struct{}
	cli     *xcql.Client
	httpSrv *http.Server
	httpLn  net.Listener
	httpErr chan error
	client  *http.Client
	url     string

	classes []queryClass
	// ref is the reference result of each query (QaC, full evaluation)
	// over the store as loaded.
	ref [][]string

	sink     *phaseSink
	handlers *handlerTimes
}

// newAdhocRig generates the load, builds the store and its HTTP front,
// computes the references and warms every class once.
func newAdhocRig(spec *adhocSpec, seed uint64, seconds int, traced bool) (r *adhocRig, err error) {
	r = &adhocRig{spec: spec}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	nTrickle := int(spec.trickleRate * float64(seconds))
	if r.load, err = genAuction(seed, nTrickle); err != nil {
		return r, err
	}
	r.eng = xcql.NewEngine()
	if spec.trickleRate == 0 {
		r.store = r.eng.AddEmptyStream(auctionName, r.load.structure)
		if err = r.store.AddAll(r.load.base); err != nil {
			return r, fmt.Errorf("load: %w", err)
		}
	} else if err = r.feedOverTCP(); err != nil {
		return r, err
	}

	api := r.eng.ServeQueryAPI()
	api.SetClock(func() time.Time { return evalInstant })
	var handler http.Handler = api
	if traced {
		r.sink = &phaseSink{}
		r.eng.SetTraceSink(r.sink)
		r.handlers = &handlerTimes{}
		handler = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			t0 := time.Now()
			api.ServeHTTP(w, req)
			r.handlers.add(t0, time.Now())
		})
	}
	if r.httpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return r, err
	}
	r.httpSrv = &http.Server{Handler: handler}
	r.httpErr = make(chan error, 1)
	go func() { r.httpErr <- r.httpSrv.Serve(r.httpLn) }()
	r.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	r.url = "http://" + r.httpLn.Addr().String() + "/v1/eval"

	for qi, q := range adhocQueries {
		for _, mode := range adhocModes {
			body, err := json.Marshal(map[string]string{
				"query": q.src, "mode": mode, "at": evalInstant.Format(time.RFC3339Nano),
			})
			if err != nil {
				return r, err
			}
			r.classes = append(r.classes, queryClass{query: qi, mode: mode, body: body})
		}
	}
	if r.ref, err = r.references(); err != nil {
		return r, err
	}
	for _, c := range r.classes {
		if _, _, err = r.post(c); err != nil {
			return r, fmt.Errorf("warm-up %s: %w", c, err)
		}
	}
	return r, nil
}

// feedOverTCP makes the store a stream client's: a non-durable server
// publishes the base load and the client receives it over loopback TCP.
func (r *adhocRig) feedOverTCP() error {
	var err error
	r.srv = xcql.NewServer(auctionName, r.load.structure)
	if r.tcpLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	r.tcpDone = make(chan struct{})
	go func() {
		defer close(r.tcpDone)
		_ = xcql.ServeTCP(r.srv, r.tcpLn) // returns when the listener closes
	}()
	if r.cli, err = xcql.Dial(r.tcpLn.Addr().String(), xcql.DialOptions{Reconnect: true}); err != nil {
		return fmt.Errorf("dial stream: %w", err)
	}
	r.eng.AttachClient(r.cli)
	r.store = r.cli.Store()
	// stay well inside the server's per-connection buffer of 1024
	for i, f := range r.load.base {
		r.srv.Publish(f)
		if err := r.waitReceived(int64(i+1) - 512); err != nil {
			return err
		}
	}
	return r.waitReceived(int64(len(r.load.base)))
}

// waitReceived blocks until the client's store holds n fragments. A
// loopback hop takes tens of microseconds and a sleep wakes up to a
// millisecond late, so it yields in a loop first and sleeps only when the
// fragment is not there within a millisecond.
func (r *adhocRig) waitReceived(n int64) error {
	for t := time.Now(); time.Since(t) < time.Millisecond; runtime.Gosched() {
		if r.cli.Stats().Received >= n {
			return nil
		}
	}
	if !waitFor(func() bool { return r.cli.Stats().Received >= n }) {
		return fmt.Errorf("client received %d of %d fragments within %v", r.cli.Stats().Received, n, drainTimeout)
	}
	return nil
}

// references evaluates every query in full under QaC over the current
// store. QaC, not CaQ: once a parent has been re-announced CaQ's
// temporal view clips children to the parent version's lifespan and the
// hole-crossing plans do not, so CaQ is no reference for a store the
// trickle has touched (see README, findings).
func (r *adhocRig) references() ([][]string, error) {
	out := make([][]string, len(adhocQueries))
	for i, q := range adhocQueries {
		cq, err := r.eng.Compile(q.src, xcql.QaC)
		if err != nil {
			return nil, err
		}
		seq, err := cq.Eval(evalInstant)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", q.name, err)
		}
		out[i] = itemStrings(seq)
	}
	return out, nil
}

// post issues one request and returns its status and items.
func (r *adhocRig) post(c queryClass) (int, []string, error) {
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(c.body))
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, nil
	}
	var er evalResponse
	if err := json.Unmarshal(body, &er); err != nil {
		return resp.StatusCode, nil, fmt.Errorf("decode response: %w", err)
	}
	return resp.StatusCode, er.Items, nil
}

// adhocPhase is what one measured ad-hoc phase produced.
type adhocPhase struct {
	requests int
	wall     time.Duration
	mem      memSample
	retained uint64
	// latencyMs is one sample per request in issue order; starts holds
	// the matching issue instants (traced phases).
	latencyMs []float64
	starts    []time.Time
	published int // trickle fragments published between the reads
	// writeUs is one sample per trickle fragment: Publish → the client's
	// store holds it.
	writeUs []float64
}

// maxStretch bounds a phase of fixed work in multiples of its nominal
// length, so a slump of the host cannot carry a run past the driver's
// limit; a phase cut short reports what it completed.
const maxStretch = 5

// measure is the closed loop: one client, one request outstanding,
// round-robin over the classes. On the quiescent store it lasts d; with a
// trickle it lasts until the fragments of d seconds have been written, one
// before every writeEvery-th request, each request issued only once the
// client's store holds the fragment — so the work of the phase, and which
// request meets which write, is the same on a fast host and a slow one.
func (r *adhocRig) measure(c *checker, d time.Duration) (adhocPhase, error) {
	var ph adhocPhase
	writes := 0
	if r.spec.trickleRate > 0 {
		writes = min(int(r.spec.trickleRate*d.Seconds()), len(r.load.trickle))
	}
	coolHeap()
	m0 := readMem()
	t0 := time.Now()
	var firstErr error
	for i := 0; ; i++ {
		if writes == 0 && time.Since(t0) >= d {
			break
		}
		if writes > 0 && i%writeEvery == 0 {
			if ph.published == writes || time.Since(t0) >= maxStretch*d {
				break
			}
			w := time.Now()
			r.srv.Publish(r.load.trickle[ph.published])
			ph.published++
			if err := r.waitReceived(int64(len(r.load.base) + ph.published)); err != nil {
				return ph, err
			}
			ph.writeUs = append(ph.writeUs, usSince(w))
		}
		cl := r.classes[i%len(r.classes)]
		s := time.Now()
		status, items, err := r.post(cl)
		ph.latencyMs = append(ph.latencyMs, float64(time.Since(s))/1e6)
		ph.starts = append(ph.starts, s)
		if err != nil {
			c.attempted++
			c.fail("transport", cl.String()+": "+err.Error())
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		want := r.ref[cl.query]
		if r.spec.trickleRate > 0 && status == http.StatusOK {
			// between writes a response is held to what every prefix of
			// the trickle preserves: no item is ever removed
			c.attempted++
			if len(items) < len(want) {
				c.fail("response-mismatch", fmt.Sprintf("%s: %d items, fewer than the %d before any write",
					cl, len(items), len(want)))
			}
			continue
		}
		c.response(cl.String(), status, items, want)
	}
	ph.wall = time.Since(t0)
	ph.requests = len(ph.latencyMs)
	m1 := readMem()
	ph.mem = memSample{m1.mallocs - m0.mallocs, m1.totalAlloc - m0.totalAlloc}
	ph.retained = retainedHeap()
	if r.spec.trickleRate > 0 {
		if err := r.finalRound(c, ph.published); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return ph, firstErr
}

// finalRound runs once the writer has stopped: every class's response
// must now equal the reference over the final store.
func (r *adhocRig) finalRound(c *checker, published int) error {
	if err := r.waitReceived(int64(len(r.load.base) + published)); err != nil {
		return err
	}
	st := r.cli.Stats()
	c.failN("transport", st.Gaps+int(st.Reconnects)+int(r.srv.Stats().Dropped),
		fmt.Sprintf("trickle: client gaps=%d reconnects=%d server drops=%d", st.Gaps, st.Reconnects, r.srv.Stats().Dropped))
	final, err := r.references()
	if err != nil {
		return err
	}
	for _, cl := range r.classes {
		status, items, err := r.post(cl)
		if err != nil {
			return err
		}
		c.response(cl.String()+" after ingest", status, items, final[cl.query])
	}
	return nil
}

// close releases the rig's listeners, connections and goroutines.
func (r *adhocRig) close() error {
	var errs []error
	if r.client != nil {
		r.client.CloseIdleConnections()
	}
	if r.httpSrv != nil {
		errs = append(errs, r.httpSrv.Close())
		if err := <-r.httpErr; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if r.cli != nil {
		r.cli.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.tcpLn != nil {
		r.tcpLn.Close()
		<-r.tcpDone
	}
	return errors.Join(errs...)
}

// classMedianMean is the ad-hoc latency_p50_ms: the mean over the
// classes of each class's median latency. The plain median of the mix
// would not do: half the classes answer in about half a millisecond and
// half in about two, so it sits in the empty gap between the two groups
// and jumps from one edge to the other on a single sample.
func classMedianMean(latencyMs []float64, classes int) float64 {
	per := make([][]float64, classes)
	for i, v := range latencyMs {
		per[i%classes] = append(per[i%classes], v)
	}
	total := 0.0
	for _, c := range per {
		total += median(c)
	}
	return total / float64(classes)
}

// roundTotals sums latencies over consecutive rounds of one request per
// class, so samples of identical composition can be compared over time.
func roundTotals(latencyMs []float64, classes int) []float64 {
	out := make([]float64, 0, len(latencyMs)/classes)
	for i := 0; i+classes <= len(latencyMs); i += classes {
		t := 0.0
		for _, v := range latencyMs[i : i+classes] {
			t += v
		}
		out = append(out, t)
	}
	return out
}

func runAdhoc(spec *adhocSpec, cfg runConfig, rep *report) error {
	if cfg.endToEnd {
		if err := adhocEndToEnd(spec, cfg, rep); err != nil {
			return err
		}
	}
	if cfg.layers {
		if err := adhocLayers(spec, cfg, rep); err != nil {
			return err
		}
	}
	return nil
}

// setUpTimes are a run's set-up times in seconds, as measured and at
// nominal host speed.
type setUpTimes struct{ raw, nominal []float64 }

// adhocSetUp builds a rig between two samples of the host's speed (see
// host.go) and records how long that took.
func adhocSetUp(spec *adhocSpec, cfg runConfig, traced bool, host *hostProbe, times *setUpTimes) (*adhocRig, error) {
	from := host.mark()
	host.sample(bracketUnits)
	t0 := time.Now()
	r, err := newAdhocRig(spec, cfg.seed, cfg.seconds, traced)
	d := time.Since(t0)
	if err != nil {
		return nil, err
	}
	host.sample(bracketUnits)
	times.raw = append(times.raw, d.Seconds())
	times.nominal = append(times.nominal, d.Seconds()/host.slowdown(from))
	return r, nil
}

func adhocEndToEnd(spec *adhocSpec, cfg runConfig, rep *report) error {
	var host hostProbe
	var setups setUpTimes
	for i := 0; i < drySetUps; i++ {
		r, err := adhocSetUp(spec, cfg, false, &host, &setups)
		if err != nil {
			return err
		}
		if err := r.close(); err != nil {
			return err
		}
	}
	r, err := adhocSetUp(spec, cfg, false, &host, &setups)
	if err != nil {
		return err
	}
	rep.printf("  XMark sf=%g: %d fragments loaded, %d classes, one client, one request outstanding\n",
		xmarkScale, len(r.load.base), len(r.classes))
	ph, err := r.measure(rep.check, time.Duration(cfg.seconds)*time.Second)
	if cerr := r.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	// halves, not the streaming workloads' quarters: there is one phase
	// here, not three to take a median over, and on this host a ratio of
	// two 2.5 s stretches moves three times as much as one of two 5 s ones
	first, last := endMedians(roundTotals(ph.latencyMs, len(r.classes)), 2)
	rep.set("setup_s", median(setups.nominal))
	rep.set("allocs_per_op", float64(ph.mem.mallocs)/float64(ph.requests))
	rep.set("alloc_kb_per_op", float64(ph.mem.totalAlloc)/1024/float64(ph.requests))
	rep.set("retained_heap_mb", float64(ph.retained)/(1<<20))
	lat := summarize(ph.latencyMs)
	rep.printf("  latency: %s\n", lat.describe())
	noteFewSamples(rep, lat)
	rep.set("loadgen.host_slowdown", host.slowdown(0))
	rep.set("loadgen.setup_raw_s", median(setups.raw))
	rep.set("loadgen.throughput_ops_s", float64(ph.requests)/ph.wall.Seconds())
	rep.set("loadgen.latency_p50_ms", classMedianMean(ph.latencyMs, len(r.classes)))
	rep.set("loadgen.latency_mean_ms", lat.Mean)
	rep.set("loadgen.latency_p99_ms", lat.P99)
	rep.set("loadgen.drift_ratio", last/first)
	rep.printf("  %d requests in %v", ph.requests, ph.wall.Round(time.Millisecond))
	if ph.published > 0 {
		rep.printf(", %d trickle fragments written between them", ph.published)
	}
	rep.printf("\n")
	return nil
}
