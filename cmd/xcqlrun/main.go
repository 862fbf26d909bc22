// Command xcqlrun evaluates an XCQL query against a fragment stream read
// from a file (the output of fragmenter or xmlgen -fragments).
//
// Usage:
//
//	xcqlrun -structure s.xml -fragments f.xml -stream credit \
//	        -mode QaC+ -at 2003-11-15T12:00:00 \
//	        'for $a in stream("credit")//account return $a/customer'
//
// With -plan the translated query is printed instead of being run. With
// -explain the query runs and the plan explanation — access paths plus
// predicted vs observed cost counters — goes to stderr.
//
// With -incremental the fragment file is replayed one arrival at a time
// through an incremental continuous query: each arrival prints its
// delta, and the final standing result plus the per-fragment cost
// counters follow at the end.
//
// With -store-dir the store is durable: fragments recovered from the
// directory's segment log are ingested first (exact duplicates from a
// previous run of the same file are coalesced away), and every fragment
// ingested this run is appended to the log before it becomes queryable,
// so a crash mid-ingest loses nothing that was acknowledged.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"xcql"
	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xmldom"
)

func main() {
	structPath := flag.String("structure", "", "tag structure file (wire form)")
	fragPath := flag.String("fragments", "", "fragment stream file")
	streamName := flag.String("stream", "stream", "name the fragments are registered under")
	modeStr := flag.String("mode", "QaC+", "execution plan: CaQ, QaC or QaC+")
	atStr := flag.String("at", "now", "evaluation instant (ISO-8601 or 'now')")
	showPlan := flag.Bool("plan", false, "print the translated plan instead of evaluating")
	explain := flag.Bool("explain", false, "evaluate, then print the plan explanation (access paths, predicted vs observed cost) to stderr")
	queryFile := flag.String("f", "", "read the query from a file instead of argv")
	showTrace := flag.Bool("trace", false, "dump the parse→translate→execute→materialize timeline to stderr")
	showStats := flag.Bool("stats", false, "print the evaluation's cost counters to stderr")
	cacheSize := flag.Int("cache", 0, "filler-resolution cache capacity in entries (0 = uncached)")
	incremental := flag.Bool("incremental", false, "replay the fragment stream through an incremental continuous query, printing per-arrival deltas")
	storeDir := flag.String("store-dir", "", "durable segment store directory: recovered fragments are ingested before the -fragments file and this run's ingest is write-ahead logged")
	tracez := flag.Bool("tracez", false, "with -incremental: record a per-arrival span tree (ingest → registry.eval → fanout → inc.recompute) in a flight recorder and dump it to stderr at the end")
	flag.Parse()
	if err := checkFlags(*structPath, *storeDir, *incremental, *showTrace, *tracez, *cacheSize); err != nil {
		fatal(err)
	}

	query, err := readQuery(*queryFile, flag.Args())
	if err != nil {
		fatal(err)
	}
	mode, err := xcql.ParseMode(*modeStr)
	if err != nil {
		fatal(err)
	}
	at := time.Now().UTC()
	if *atStr != "now" {
		dt, err := xcql.ParseDateTime(*atStr)
		if err != nil {
			fatal(err)
		}
		at = dt.Resolve(time.Now().UTC())
	}

	engine := xcql.NewEngine()
	engine.SetCache(*cacheSize)
	var store *fragment.Store
	var frags []*fragment.Fragment
	if *structPath != "" {
		var err error
		_, store, frags, err = loadStream(*structPath, *fragPath)
		if err != nil {
			fatal(err)
		}
		if *storeDir != "" {
			seg, err := attachSegStore(store, *storeDir)
			if err != nil {
				fatal(err)
			}
			defer seg.Close()
		}
		if !*incremental {
			// one-shot evaluation reads a fully ingested store
			if err := store.AddAll(frags); err != nil {
				fatal(err)
			}
			// re-running over the same durable log re-ingests fragments
			// that were both recovered and in the file; exact duplicates
			// are semantics-preserving and coalesce away
			if removed := store.Coalesce(); removed > 0 {
				fmt.Fprintf(os.Stderr, "coalesced %d duplicate version(s) after recovery\n", removed)
			}
		}
		engine.RegisterStore(*streamName, store)
	}
	var sink *xcql.CollectorSink
	if *showTrace {
		sink = &xcql.CollectorSink{}
		engine.SetTraceSink(sink)
	}
	q, err := engine.Compile(query, mode)
	if err != nil {
		fatal(err)
	}
	if *showPlan {
		fmt.Println(q.Plan.String())
		return
	}
	if *incremental {
		runIncremental(q, store, frags, at, *atStr == "now", *showStats, *tracez)
		return
	}
	start := time.Now()
	seq, err := q.Eval(at)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Println(xcql.FormatSequence(seq))
	fmt.Fprintf(os.Stderr, "%d item(s), %s plan, %v\n", len(seq), mode, elapsed)
	if *showStats {
		stats := q.LastStats()
		fmt.Fprintln(os.Stderr, stats.String())
		if c := engine.Cache(); c != nil {
			fmt.Fprintln(os.Stderr, "cache:", c.String())
		}
	}
	if *explain {
		fmt.Fprint(os.Stderr, q.Explain().String())
	}
	if sink != nil {
		fmt.Fprint(os.Stderr, sink.Timeline())
	}
}

// checkFlags rejects flag combinations that cannot do what they ask.
func checkFlags(structPath, storeDir string, incremental, trace, tracez bool, cache int) error {
	switch {
	case storeDir != "" && structPath == "":
		return fmt.Errorf("-store-dir needs -structure to build the recovered store")
	case incremental && structPath == "":
		return fmt.Errorf("-incremental needs -structure (and -fragments) to replay")
	case tracez && !incremental:
		return fmt.Errorf("-tracez needs -incremental: spans are recorded per replayed arrival")
	case trace && incremental:
		return fmt.Errorf("-trace times one evaluation; with -incremental use -tracez for per-arrival spans")
	case cache > 0 && incremental:
		return fmt.Errorf("-cache has no effect with -incremental: the standing engine reads uncached")
	}
	return nil
}

// runIncremental replays the fragment stream one arrival at a time
// through an incremental continuous query. The evaluation clock tracks
// the running maximum validTime unless an explicit -at pins it.
func runIncremental(q *xcql.Query, store *fragment.Store, frags []*fragment.Fragment,
	at time.Time, trackClock bool, showStats bool, tracez bool) {
	clock := at
	var delta xcql.Sequence
	cq := xcql.NewContinuousQuery(q, func(r xcql.Result) { delta = r.Delta })
	cq.Clock = func() time.Time { return clock }
	var rec *xcql.FlightRecorder
	if tracez {
		// keep every trace: a CLI replay is small and the point is the dump
		rec = xcql.NewFlightRecorder(xcql.FlightRecorderOptions{SampleEvery: 1})
		cq.SetFlightRecorder(rec)
	}
	fmt.Fprintf(os.Stderr, "incremental: %s\n", cq.Strategy())
	start := time.Now()
	for i, f := range frags {
		if err := store.Add(f); err != nil {
			fatal(err)
		}
		if trackClock && f.ValidTime.After(clock) {
			clock = f.ValidTime
		}
		delta = nil
		var sp *xcql.Span
		if rec != nil {
			sp = rec.Start(rec.NewTrace(), "ingest").Annotate("replay", f.TSID, f.Seq)
			f = f.WithTrace(sp.Context())
		}
		if err := cq.EvaluateFragment(f); err != nil {
			fatal(err)
		}
		if sp != nil {
			sp.SetDetail(fmt.Sprintf("arrival=%d filler=%d delta=%d", i+1, f.FillerID, len(delta)))
			sp.End()
		}
		if len(delta) > 0 {
			fmt.Printf("-- arrival %d (filler %d): %d new item(s)\n%s\n",
				i+1, f.FillerID, len(delta), xcql.FormatSequence(delta))
		}
	}
	if rec != nil {
		rec.Flush()
		fmt.Fprint(os.Stderr, rec.Render(0))
	}
	elapsed := time.Since(start)
	snapshot := cq.ItemsSnapshot()
	fmt.Printf("-- final standing result\n%s\n", xcql.FormatSequence(snapshot))
	fmt.Fprintf(os.Stderr, "%d item(s) standing after %d arrival(s), %v\n",
		len(snapshot), len(frags), elapsed)
	if showStats {
		stats := q.LastStats()
		fmt.Fprintln(os.Stderr, stats.String())
		fmt.Fprintf(os.Stderr, "buffer: %d bytes standing, %d bytes high-water\n",
			cq.BufferBytes(), cq.BufferHWMBytes())
	}
}

// attachSegStore wires a durable segment log under the in-memory store:
// recovery first (the recovered fragments are ingested and the cache
// generation advanced, so nothing stale survives), then write-ahead — a
// hook appends every subsequently ingested fragment to the log, stamped
// with the next durable sequence number, before it becomes queryable.
func attachSegStore(store *fragment.Store, dir string) (*xcql.SegStore, error) {
	seg, rep, err := xcql.OpenSegStore(dir, xcql.SegStoreOptions{SnapshotEvery: 1024})
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "segment store:", rep)
	recovered, err := seg.All()
	if err != nil {
		seg.Close()
		return nil, err
	}
	// recovered fragments are already durable: ingest them before the
	// write-ahead hook is installed so they are not re-appended
	if err := store.AddAll(recovered); err != nil {
		seg.Close()
		return nil, err
	}
	store.AdvanceGeneration()
	_, seq := seg.SeqBounds()
	store.SetWAL(func(f *fragment.Fragment) error {
		seq++
		return seg.Append(f.WithSeq(seq))
	})
	if len(recovered) > 0 {
		fmt.Fprintf(os.Stderr, "recovered %d fragment(s) into the store\n", len(recovered))
	}
	return seg, nil
}

func readQuery(file string, args []string) (string, error) {
	if file != "" {
		b, err := os.ReadFile(file)
		return string(b), err
	}
	if len(args) == 1 {
		return args[0], nil
	}
	return "", fmt.Errorf("pass the query as the single argument or via -f")
}

// loadStream parses the structure and fragment files, returning an EMPTY
// store plus the fragment sequence in file order — the caller decides
// whether to ingest everything up front (one-shot evaluation) or replay
// arrivals one at a time (incremental).
func loadStream(structPath, fragPath string) (*tagstruct.Structure, *fragment.Store, []*fragment.Fragment, error) {
	sf, err := os.Open(structPath)
	if err != nil {
		return nil, nil, nil, err
	}
	structure, err := tagstruct.Parse(sf)
	sf.Close()
	if err != nil {
		return nil, nil, nil, err
	}
	store := fragment.NewStore(structure)
	var frags []*fragment.Fragment
	if fragPath != "" {
		ff, err := os.Open(fragPath)
		if err != nil {
			return nil, nil, nil, err
		}
		defer ff.Close()
		dec := xmldom.NewStreamDecoder(ff)
		for {
			el, err := dec.ReadElement()
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, nil, nil, err
			}
			f, err := fragment.FromXML(el)
			if err != nil {
				return nil, nil, nil, err
			}
			frags = append(frags, f)
		}
	}
	return structure, store, frags, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xcqlrun:", err)
	os.Exit(1)
}
