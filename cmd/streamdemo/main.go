// Command streamdemo runs the full push-based architecture over TCP on
// localhost: a server fragments and broadcasts credit-card data, a client
// registers once, receives the fragment stream, and evaluates a
// continuous XCQL query as fragments arrive.
//
//	streamdemo                # one server, one client, a short burst of events
//	streamdemo -events 50     # more charge events
//	streamdemo -chaos         # inject drops/dups/reorders/resets into the wire
//	streamdemo -chaos -seed 7 # a different (but reproducible) fault schedule
//	streamdemo -metrics 127.0.0.1:9190
//	                          # expose /metrics (live counters), /statusz
//	                          # (health + EXPLAIN) and /debug/pprof while
//	                          # the demo runs; an interrupt shuts the HTTP
//	                          # server down gracefully
//	streamdemo -store-dir d   # durable server: fragments write through to
//	                          # a checksummed segment log in d, the server
//	                          # recovers from it on restart (sequence
//	                          # numbers continue), and clients that fall
//	                          # past the in-memory replay window bootstrap
//	                          # from the log instead of losing data
//	streamdemo -log           # structured debug logs for the pipeline
//	streamdemo -serve 127.0.0.1:9280
//	                          # expose the standing-query API: POST XCQL
//	                          # text to /v1/query (or register over a
//	                          # WebSocket at /v1/subscribe) and receive
//	                          # JSON deltas as fragments arrive; the
//	                          # process keeps streaming until interrupted
//
// In -chaos mode the transport deliberately misbehaves under a seeded
// RNG; the run then demonstrates the reliability layer: gap events are
// printed as they are detected, the client reconnects and resumes, and
// the final report shows the delivery counters plus whether the stream
// ended healthy or explicitly degraded.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"time"

	"xcql"
)

const structureXML = `<stream:structure>
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

func main() {
	events := flag.Int("events", 10, "number of charge events to stream")
	chaos := flag.Bool("chaos", false, "inject transport faults: drops, duplicates, reorders, mid-frame resets")
	seed := flag.Int64("seed", 1, "RNG seed for the fault schedule and reconnect jitter")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /statusz and /debug/pprof on this address (e.g. 127.0.0.1:9190)")
	verbose := flag.Bool("log", false, "emit structured debug logs for the whole pipeline to stderr")
	serveAddr := flag.String("serve", "", "serve the standing-query API on this address (e.g. 127.0.0.1:9280): register XCQL over HTTP or WebSocket, receive JSON deltas; keeps the demo streaming until interrupted")
	storeDir := flag.String("store-dir", "", "durable segment store directory: publishes write through to it, the server recovers from it on restart, and reconnecting clients bootstrap from it past the replay window")
	historyLimit := flag.Int("history", 0, "bound the server's in-memory replay window to this many fragments (0 = unbounded); with -store-dir older positions stay servable from the log")
	tracez := flag.Bool("tracez", false, "record per-fragment span trees (publish→fsync→eval→fanout→delivery) in a bounded flight recorder; dumps kept traces at the end and serves them at /tracez and /debugz with -metrics")
	flag.Parse()

	// an interrupt stops the embedded HTTP server gracefully instead of
	// tearing the process down mid-response
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var logger *slog.Logger
	if *verbose {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug}))
	}

	structure := xcql.MustParseTagStructure(structureXML)
	registry := xcql.NewRegistry()
	// one recorder spans the whole pipeline: a fragment published on the
	// server side and delivered to the client shows up as a single trace
	var flight *xcql.FlightRecorder
	if *tracez {
		flight = xcql.NewFlightRecorder(xcql.FlightRecorderOptions{SampleEvery: 1})
		flight.RegisterMetrics(registry, "trace")
	}
	var server *xcql.Server
	var seg *xcql.SegStore
	if *storeDir != "" {
		opened, rep, err := xcql.OpenSegStore(*storeDir, xcql.SegStoreOptions{SnapshotEvery: 256})
		if err != nil {
			log.Fatal(err)
		}
		seg = opened
		defer seg.Close()
		fmt.Println("segment store:", rep)
		server, err = xcql.RecoverServer("credit", structure, seg)
		if err != nil {
			log.Fatal(err)
		}
		seg.RegisterMetrics(registry, "segstore")
		if st := server.Stats(); st.LatestSeq > 0 {
			fmt.Printf("recovered %d fragments from %s; sequence resumes after %d\n",
				st.Retained, *storeDir, st.LatestSeq)
		}
	} else {
		server = xcql.NewServer("credit", structure)
	}
	if *historyLimit > 0 {
		server.SetHistoryLimit(*historyLimit)
	}
	server.SetLogger(logger)
	server.SetFlightRecorder(flight)
	if seg != nil {
		seg.SetFlightRecorder(flight)
	}
	server.RegisterMetrics(registry, "server")

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var injector *xcql.FaultInjector
	serveOpts := xcql.ServeOptions{}
	if *chaos {
		injector = xcql.NewFaultInjector(xcql.FaultPlan{
			Seed:        *seed,
			DropProb:    0.10,
			DupProb:     0.05,
			ReorderProb: 0.05,
			ResetEvery:  13,
		})
		serveOpts.Faults = injector
		injector.SetLogger(logger)
		injector.RegisterMetrics(registry, "fault")
		fmt.Printf("chaos mode: seed=%d (drop 10%%, dup 5%%, reorder 5%%, reset every 13 frames)\n", *seed)
	}
	go func() { _ = xcql.ServeTCPOptions(server, ln, serveOpts) }()
	fmt.Println("server listening on", ln.Addr())

	// --- client side -------------------------------------------------------
	client, err := xcql.Dial(ln.Addr().String(), xcql.DialOptions{
		Reconnect:      true,
		InitialBackoff: 20 * time.Millisecond,
		MaxBackoff:     time.Second,
		Rand:           rand.New(rand.NewSource(*seed)),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()
	client.SetLogger(logger)
	client.SetFlightRecorder(flight)
	client.OnGap(func(g xcql.Gap) { fmt.Printf("  !! %s\n", g) })
	client.RegisterMetrics(registry, "client")
	fmt.Printf("client registered with stream %q (structure delivered in the handshake)\n", client.Name())

	engine := xcql.NewEngine()
	engine.AttachClient(client)
	q := engine.MustCompile(
		`for $t in stream("credit")//transaction
		 where $t/amount > 700
		 return <big id="{$t/@id}">{ $t/amount/text() }</big>`, xcql.QaCPlus)
	// the demo's standing query is a registration on the engine's registry,
	// the one -serve exposes
	qreg := engine.Registry()
	qreg.SetFlightRecorder(flight)
	cq, err := qreg.Register(q, xcql.RegistryOptions{OnResult: func(r xcql.RegistryResult) {
		for _, item := range r.Delta {
			fmt.Printf("  continuous result: %s\n", xcql.FormatSequence(xcql.Sequence{item}))
		}
	}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("incremental evaluation: %s\n", cq.Strategy())
	cq.Latency().Register(registry, "cq_latency")
	client.AttachRegistry(qreg)

	// -serve mounts the multi-tenant standing-query API over the same
	// registry: registrations compiled by this engine share one
	// evaluation per arriving fragment per access path, and subscribers
	// receive JSON deltas over HTTP long-poll-free WebSocket frames
	var querySrv *http.Server
	if *serveAddr != "" {
		qreg.RegisterMetrics(registry, "registry")
		qln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			log.Fatal(err)
		}
		api := engine.ServeQueryAPI()
		if flight != nil {
			api.SetFlightRecorder(flight)
		}
		querySrv = &http.Server{Handler: api}
		go func() { _ = querySrv.Serve(qln) }()
		go func() {
			<-ctx.Done()
			shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = querySrv.Shutdown(shCtx)
		}()
		fmt.Printf("query API on http://%s — POST /v1/query, WebSocket /v1/subscribe, stats /v1/registryz\n", qln.Addr())
	}

	// one registry holds the whole pipeline — server, transport faults,
	// client and continuous query — and doubles as the /metrics handler;
	// /statusz renders the human-readable health + EXPLAIN view
	var httpSrv *http.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", registry)
		mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
			ss, cs := server.Stats(), client.Stats()
			fmt.Fprintf(w, "stream %q\n", server.Name())
			fmt.Fprintf(w, "server: watermark-seq=%d watermark=%s subscribers=%d max-queue-depth=%d dropped=%d\n",
				ss.LatestSeq, ss.Watermark.Format(time.RFC3339), ss.Subscribers, ss.MaxQueueDepth, ss.Dropped)
			fmt.Fprintf(w, "client: watermark-seq=%d watermark=%s seq-lag=%d missing=%d lost=%d degraded=%q\n",
				cs.LastSeq, cs.Watermark.Format(time.RFC3339), cs.Lag, cs.Missing, cs.Lost, cs.Degraded)
			fmt.Fprintf(w, "watermark lag: %v\n", xcql.WatermarkLag(server, client))
			fmt.Fprintf(w, "evaluations: %d\n", cq.Stats().Evaluations)
			fmt.Fprintf(w, "ingest->result latency: %s\n", cq.Latency())
			fmt.Fprintf(w, "delivery latency:       %s\n\n", client.DeliveryLatency())
			fmt.Fprint(w, q.Explain())
		})
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if flight != nil {
			mux.Handle("/tracez", flight)
		}
		// /debugz is the one-page "what is this process doing" snapshot:
		// goroutines, heap, and the flight recorder's retained traces
		mux.HandleFunc("/debugz", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintf(w, "goroutines: %d\n", runtime.NumGoroutine())
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			fmt.Fprintf(w, "heap: %d KiB in use / %d KiB sys, %d GC cycles\n",
				ms.HeapInuse/1024, ms.Sys/1024, ms.NumGC)
			if flight == nil {
				fmt.Fprintln(w, "flight recorder: disabled (run with -tracez)")
				return
			}
			st := flight.Stats()
			fmt.Fprintf(w, "flight recorder: %d active, %d kept in ring (%d finalized, %d sampled out, %d overwritten), p99 threshold %s\n",
				st.Active, st.KeptInRing, st.Finalized, st.SampledOut, st.RingDropped,
				time.Duration(st.ThresholdNs))
			e2e := flight.E2E().Snapshot()
			fmt.Fprintf(w, "e2e latency: p50=%s p90=%s p99=%s\n", e2e.Quantile(0.5), e2e.Quantile(0.9), e2e.Quantile(0.99))
			for _, q := range []float64{0.5, 0.9, 0.99} {
				if ex := e2e.ExemplarNear(q); ex != 0 {
					fmt.Fprintf(w, "  p%02.0f exemplar: trace %016x (GET /tracez?trace=%016x)\n", q*100, ex, ex)
				}
			}
			fmt.Fprintln(w)
			fmt.Fprint(w, flight.Render(10))
		})
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		httpSrv = &http.Server{Handler: mux}
		go func() { _ = httpSrv.Serve(mln) }()
		go func() {
			<-ctx.Done()
			shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = httpSrv.Shutdown(shCtx)
		}()
		fmt.Printf("metrics on http://%s/metrics (health on /statusz, snapshot on /debugz, pprof under /debug/pprof/)\n", mln.Addr())
		if flight != nil {
			fmt.Printf("flight recorder on http://%s/tracez (filter with ?trace=, ?stream=, ?tsid=, ?reg=)\n", mln.Addr())
		}
	}

	// --- server side: publish the initial document, then events -------------
	base := time.Now().UTC().Add(-time.Hour)
	el := func(src string) *xcql.Node { return xcql.MustParseDocument(src).Root() }
	server.Publish(xcql.NewFragment(0, 1, base,
		el(`<creditAccounts><hole id="1" tsid="2"/></creditAccounts>`)))
	server.Publish(xcql.NewFragment(1, 2, base,
		el(`<account id="1234"><customer>John Smith</customer><hole id="2" tsid="4"/></account>`)))
	server.Publish(xcql.NewFragment(2, 4, base, el(`<creditLimit>5000</creditLimit>`)))

	holes := `<hole id="2" tsid="4"/>`
	for i := 0; i < *events && ctx.Err() == nil; i++ {
		txID := 100 + i
		holes += fmt.Sprintf(`<hole id="%d" tsid="5"/>`, txID)
		// the account update announces the new hole, the event follows
		server.Publish(xcql.NewFragment(1, 2, base.Add(time.Duration(i+1)*time.Minute),
			el(fmt.Sprintf(`<account id="1234"><customer>John Smith</customer>%s</account>`, holes))))
		amount := 100 * (i + 1)
		server.Publish(xcql.NewFragment(txID, 5, base.Add(time.Duration(i+1)*time.Minute),
			el(fmt.Sprintf(`<transaction id="t%d"><vendor>Shop %d</vendor><amount>%d</amount></transaction>`, i, i, amount))))
		time.Sleep(20 * time.Millisecond)
	}

	// in serve mode the burst is just the opening data set: keep the
	// stream open for API registrations until the user interrupts
	if *serveAddr != "" {
		fmt.Println("event burst complete; serving standing queries (interrupt to stop)")
		<-ctx.Done()
		fmt.Println("\nshutting down")
	}

	// Orderly shutdown: the eos frame triggers the client's final catch-up
	// pass, which re-registers and replays anything the faults ate. Wait
	// until the client's counters have been still for a moment — checking
	// Missing/Lag alone would race the eos frame itself.
	server.Close()
	deadline := time.Now().Add(5 * time.Second)
	prev, stableSince := client.Stats(), time.Now()
	for time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
		if st := client.Stats(); st != prev {
			prev, stableSince = st, time.Now()
			continue
		}
		if time.Since(stableSince) >= 300*time.Millisecond {
			break
		}
	}

	res, err := engine.Eval(`count(stream("credit")//transaction)`, time.Now().UTC())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client store now holds %s transactions (%d fragments)\n",
		xcql.FormatSequence(res), client.Store().Len())

	srv, cli := server.Stats(), client.Stats()
	fmt.Printf("server: published=%d broker-drops=%d retained=%d latest-seq=%d resume-floor=%d bootstraps=%d\n",
		srv.LatestSeq, srv.Dropped, srv.Retained, srv.LatestSeq, srv.ResumeFloor, srv.Bootstraps)
	fmt.Printf("client: received=%d duplicates=%d replayed=%d gaps=%d missing=%d lost=%d reconnects=%d last-seq=%d\n",
		cli.Received, cli.Duplicates, cli.Replayed, cli.Gaps, cli.Missing, cli.Lost, cli.Reconnects, cli.LastSeq)
	if cli.Reconnects > 0 {
		fmt.Printf("reconnect outcomes: replay=%d snapshot-bootstrap=%d degraded=%d\n",
			cli.ReconnectReplay, cli.ReconnectSnapshot, cli.ReconnectDegraded)
	}
	if seg != nil {
		ss := seg.Stats()
		fmt.Printf("segment store: segments=%d bytes=%d frames=%d appends=%d fsyncs=%d snapshots=%d gen=%d\n",
			ss.Segments, ss.SegmentBytes, ss.Frames, ss.Appends, ss.Fsyncs, ss.Snapshots, ss.SnapshotGen)
		if srv.StorageErrors > 0 {
			fmt.Printf("segment store DEGRADED: %d storage errors during write-through\n", srv.StorageErrors)
		}
	}
	if injector != nil {
		fmt.Println("injected:", injector)
	}
	if reason, degraded := client.Degraded(); degraded {
		fmt.Println("stream DEGRADED:", reason)
	} else {
		fmt.Println("stream healthy: every published fragment accounted for")
	}
	fmt.Printf("watermark lag: %v, ingest->result latency: %s\n",
		xcql.WatermarkLag(server, client), cq.Latency())
	cs := cq.Stats()
	fmt.Printf("incremental buffer: %d bytes standing, %d bytes high-water\n",
		cs.BufferBytes, cs.BufferHWMBytes)
	if flight != nil {
		flight.Flush()
		st := flight.Stats()
		fmt.Printf("flight recorder: %d trace(s) kept (%d finalized, %d sampled out)\n",
			st.KeptInRing, st.Finalized, st.SampledOut)
		fmt.Print(flight.Render(5))
	}
	fmt.Println("final metric exposition:")
	_, _ = registry.WritePrometheus(os.Stdout)
	for _, srv := range []*http.Server{httpSrv, querySrv} {
		if srv == nil {
			continue
		}
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		_ = srv.Shutdown(shCtx)
		cancel()
	}
}
