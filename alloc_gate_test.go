package xcql_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"testing"
	"time"

	"xcql/internal/evalbench"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/registry"
	"xcql/internal/tagstruct"
	ixcql "xcql/internal/xcql"
	"xcql/internal/xmark"
)

// The allocation gate: reads are zero-copy — get_fillers builds one top
// element per visible version whose lifespan stamps the query can observe,
// hands out the stored payload of any other, and shares everything below
// it, projections,
// hole filling and constructors rebuild only what they change — so the
// allocations of an evaluation follow the number of versions and result
// items it touches, not the number of nodes under them — and, since the
// translator pushes predicates below the access path (PR 18), the number
// of versions the query keeps, not the number it examines: Q1 returns one
// name out of 517 person versions and Q5 counts the 120 closed auctions
// of 195 that sold at 40 or more. Since PR 21 a child step's positions are
// a read window too — Q2's bidder[1] builds one bidder of ≈3 per auction —
// and a hole crossing reads its ids in place, with no id set built per
// call. QaC+ reads the store's one index in place. A read builds its
// versions' top elements in one array of nodes and one of attributes, a
// literal evaluates to a sequence built once, a FLWOR without order by
// keeps no context per tuple, and under QaC+ a for clause reads what its
// body crosses of every binding's
// holes in one read (Q2: the bidders of every open auction), and the
// evaluator allocates per binding only what the result keeps — no argument
// slice per call, no sequence per intermediate path step, per context item
// or per constructed element, no copy of a constructor's content,
// count() answers from numbers built once, a FLWOR sizes its result
// once for its bindings and carves what its constructors build from a few
// arrays (Q2: one of elements and one of child lists for its 240 auctions),
// and what an evaluation reads by and no result keeps — argument stack,
// lent sequences, hole ids and groups, a read's kept-version notes — is
// scratch the runtime recycles across evaluations, a FLWOR's result is
// handed out without a copy, a store read returns its versions in a list
// lent of that scratch and writes them once, as items, into a sequence its
// consumer lends — a for clause's, a read-ahead's —, count() over an
// unordered FLWOR counts each binding's return without building the
// FLWOR's result, and an evaluation's static environment — its xq.Static,
// access path, hole resolvers, store list and budget — is kept with the
// scratch: 14, 18, 14 and 4 for Q1, Q2, Q5 and QD, flat in the
// number of auctions (Q2 at sf 0.005, 0.01 and 0.02 within 10), and the
// ceilings sit ~10 % above them, one allocation at least (25, 30, 26 and
// 16 while every read copied its list of versions into a sequence of its
// own, count() counted a FLWOR's whole result and each evaluation built
// its environment; 31 for Q2 while the read-ahead's list was
// its own; 30, 42, 33 and 18 while that scratch and the
// copy were allocated per evaluation; 528, 41 and 26 while every constructed element
// and its child list were objects of their own and a result sequence
// doubled its way up; 43 for
// Q5 while count() boxed its answer; 1 725, 201 and 221 while every one of
// those allocated;
// 3 401 for Q2 while every binding read its own children; 40,
// 5 328, 1 014 and 1 206 while every top cost two allocations, every
// literal evaluation one and every tuple a context and a binding; 96,
// 10 958, 1 062 and 1 206 before child steps were windowed; QaC+ regrouped
// a tsid's fragments per read before the one index — 611, 1 262, 1 618 for
// Q1, Q5, QD; before predicates were pushed Q1 and QD needed 9 829 / 9 323
// and 2 815 / 2 409, and the clone-per-read engine 48 703 / 48 197 and
// 8 275 / 7 869): a change that brings a deep copy back on the read path —
// in the store, a projection or a constructor — a top element
// back for every version a filter or a window turns away, an allocation
// per top, a per-read regrouping of what the index already holds, an id
// set per crossing or a context per tuple goes through them, while
// allocator noise and small evaluator changes do not.
//
// Heap bytes have ceilings of their own, ~15 % above what Q1, Q2, Q5 and
// QD allocate per evaluation — 736, 28 784, 736 and 3 488 B (1 248,
// 39 512, 7 880 and 10 760 B while every read's versions were a list of
// nodes and a sequence of their own, count() counted a built result and
// each evaluation built its environment; 41 608 B
// for Q2 while the read-ahead kept its versions both as a list of nodes and
// as items; 5 584,
// 72 088, 18 216 and 17 320 B while a read's bookkeeping and the
// evaluator's scratch were allocated per evaluation and the result copied
// whole; 78 360, 24 744
// and 23 336 B for Q2, Q5 and QD while constructors and results allocated
// per binding; 117 970, 27 320
// and 26 450 B before the evaluator stopped allocating what no result
// keeps) — and ~15 % above the two handler rows below per request —
// 15 384 and 12 568 B (26 112 and 19 840 B while every read's versions were
// a list and a sequence of their own and each evaluation built its
// environment; 64 368 and 28 488 B while the handler evaluated the
// result whole and wrote it into a body of its own; 94 848 and 35 032 B
// while that bookkeeping was
// allocated per evaluation; 101 120 and 41 048 B while constructors and results
// allocated per binding, 122 170 and 55 938 B before the plan cache and the
// presized body, 162 192 and 59 248 B before the evaluator stopped
// allocating what no result keeps). The bytes show what no count does:
// the bookkeeping grows with the holes and versions a read crosses, a few
// allocations whatever their number. None of the four queries observes a
// stamp, so their reads build no top (209 352, 61 106 and 68 040 B, and
// 253 242 and 100 674 B, while every read stamped a new top per version).
// No count shows that loss: a stamped read builds all its tops in a few
// allocations, whatever their number. Nor does a count show a chunk
// reserved for bindings a where drops, which the row of a constructor
// behind a where the evaluator keeps holds in bytes: 92 of 195 closed
// auctions pass it, and its chunks are sized for the bindings at the rate
// the where let them through (22 394 B, ceiling ~10 % above; 31 922 B if
// sized for every binding still to come; 27 890 B while every read's
// versions were a list and a sequence of their own, and 38 682 B then if
// sized for every binding still to come; 34 688 B while the bookkeeping
// above was allocated per evaluation, 34 712 B while every element was an
// object of its own). number() keeps the comparison from being pushed below the read,
// which would leave no where behind.
//
// POST /v1/eval has two rows of its own: the handler around Q2 and QD —
// the request, a plan-cache hit, and the evaluation, each item written as
// the FLWOR yields it into a body buffer the API keeps between requests,
// each node item encoded into a kept buffer and escaped from there, the
// elements a binding constructs built in arrays rewound for the next — 47
// and 35 allocations per request, ceilings 52 and 39 (59 and 47 while every
// read's versions were a list and a sequence of their own and each
// evaluation built its environment, against the 64 and 50 the handler then
// allocated when it evaluated the result whole into a body of its own; 65
// and 50 before the read-ahead's list was lent; 76 and 52
// while the evaluation's scratch and a
// read's bookkeeping were allocated per request; 562 and 60 while every constructed element and its
// child list were objects of their own and a result sequence doubled its
// way up, 671 and 120 while every request parsed and
// translated its text and grew its body from nothing, 1 868 and 315
// before the evaluator stopped allocating what no result keeps; 1 885 and
// 327 before the compile marked reads bare; 3 551 for Q2 while every binding
// read its own children, 5 708 and 1 498 while the body was a map handed
// to encoding/json, one string per item).
//
// One more ceiling holds what the one index must never lose: nothing is
// derived from the store per generation, so the first QaC+ evaluation
// after a write allocates what a warm one does (4 657 against 101 while
// a fourth plan read a regrouped copy of the log, rebuilt after every
// Add).
//
// The last ceiling is the incremental engine's: what one arrival costs a
// standing query must follow what the arrival touches.
//
// `make alloc-gate` (part of `make check`) runs it without the race
// detector, whose instrumentation allocates on its own.
func TestAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ds, err := evalbench.Build(0.02, false)
	if err != nil {
		t.Fatal(err)
	}
	const (
		queryQD    = `for $c in stream("auction")//closed_auction return $c/price`
		queryWhere = `for $i in stream("auction")/site/closed_auctions/closed_auction where number($i/price) >= 100 return <p>{$i/price/text()}</p>`
	)
	for _, c := range []struct {
		name, src string
		mode      ixcql.Mode
		ceiling   float64
		maxBytes  float64 // 0: not gated
	}{
		{"Q1/QaC+", xmark.QueryQ1(), ixcql.QaCPlus, 16, 850},
		{"Q2/QaC+", xmark.QueryQ2(), ixcql.QaCPlus, 20, 33_100},
		{"Q5/QaC+", xmark.QueryQ5(), ixcql.QaCPlus, 16, 850},
		{"QD/QaC+", queryQD, ixcql.QaCPlus, 5, 4_000},
		{"constructor behind a where/QaC+", queryWhere, ixcql.QaCPlus, 700, 24_700},
	} {
		q, err := ds.Runtime.Compile(c.src, c.mode)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		eval := func() {
			if _, err := q.Eval(evalbench.EvalInstant); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		got := testing.AllocsPerRun(5, eval)
		t.Logf("%s: %.0f allocs/op (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs/op, ceiling %.0f", c.name, got, c.ceiling)
		}
		checkBytes(t, c.name, "op", c.maxBytes, eval)
		// a compile of a text compiled before is a new Query over the
		// cached plan: one allocation, no parse, no translation
		hit := testing.AllocsPerRun(5, func() {
			if _, err := ds.Runtime.Compile(c.src, c.mode); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		})
		if hit > 1 {
			t.Errorf("%s: a plan-cache hit costs %.0f allocations, want 1", c.name, hit)
		}
		if c.name != "Q1/QaC+" {
			continue
		}
		// a write — a second root version, dated after the evaluation
		// instant — then one evaluation, not a warmed-up one
		root := ds.Store.Versions(fragment.RootFillerID)[0]
		if err := ds.Store.Add(fragment.New(root.FillerID, root.TSID, evalbench.EvalInstant.Add(time.Hour), root.Payload)); err != nil {
			t.Fatal(err)
		}
		afterAdd := allocsOnce(eval)
		t.Logf("%s right after Store.Add: %.0f allocs (warm %.0f)", c.name, afterAdd, got)
		if afterAdd > got+5 {
			t.Errorf("%s: %.0f allocs right after Store.Add, %.0f warm: a read derives something from the store per generation", c.name, afterAdd, got)
		}
	}

	// Q2 builds one element per open auction, all of them carved from the
	// same arrays: what it allocates does not follow the number of
	// auctions (166, 287 and 528 at sf 0.005, 0.01 and 0.02 while each
	// element and its child list were objects of their own)
	var sweep []float64
	var smallest *evalbench.Dataset
	for _, sf := range []float64{0.005, 0.01} {
		small, err := evalbench.Build(sf, false)
		if err != nil {
			t.Fatal(err)
		}
		if smallest == nil {
			smallest = small
		}
		q := small.Runtime.MustCompile(xmark.QueryQ2(), ixcql.QaCPlus)
		sweep = append(sweep, testing.AllocsPerRun(5, func() {
			if _, err := q.Eval(evalbench.EvalInstant); err != nil {
				t.Fatal(err)
			}
		}))
	}
	q2 := ds.Runtime.MustCompile(xmark.QueryQ2(), ixcql.QaCPlus)
	sweep = append(sweep, testing.AllocsPerRun(5, func() {
		if _, err := q2.Eval(evalbench.EvalInstant); err != nil {
			t.Fatal(err)
		}
	}))
	t.Logf("Q2/QaC+ at sf 0.005, 0.01 and 0.02: %v allocs/op", sweep)
	if spread := slices.Max(sweep) - slices.Min(sweep); spread > 10 {
		t.Errorf("Q2/QaC+ at sf 0.005, 0.01 and 0.02: %v allocs/op, %.0f apart: the cost follows the number of auctions", sweep, spread)
	}

	// POST /v1/eval around the same evaluations, through httptest: the
	// request, the compile, the evaluation and the body, written by hand.
	for _, c := range []struct {
		name, src string
		ceiling   float64
		maxBytes  float64
	}{
		{"POST /v1/eval Q2/QaC+", xmark.QueryQ2(), 52, 17_700},
		{"POST /v1/eval QD/QaC+", queryQD, 39, 14_450},
	} {
		post := evalPost(t, ds, c.name, c.src)
		got := testing.AllocsPerRun(5, post)
		t.Logf("%s: %.0f allocs/request (ceiling %.0f)", c.name, got, c.ceiling)
		if got > c.ceiling {
			t.Errorf("%s: %.0f allocs/request, ceiling %.0f", c.name, got, c.ceiling)
		}
		checkBytes(t, c.name, "request", c.maxBytes, post)
	}
	// What one more open auction costs POST /v1/eval Q2, between sf 0.005
	// and 0.02 (60 and 240 open auctions): 28 B, ceiling ~15 % above — the
	// recorder's copy of its line of the body. The items of the auction and
	// of its first bidder and the auction's slot in the list of tops, the
	// element the binding constructs, its child list, its slot in a result
	// sequence and its line of a body of the request's own are reused from
	// binding to binding and request to request (71 B while every read's
	// versions were a list and a sequence of their own, 222 B while the
	// handler evaluated the result whole into a body of its own).
	const perAuctionCeiling = 33.0
	var auctions, reqBytes [2]float64
	for i, d := range []*evalbench.Dataset{smallest, ds} {
		res, err := d.Runtime.MustCompile(xmark.QueryQ2(), ixcql.QaCPlus).Eval(evalbench.EvalInstant)
		if err != nil {
			t.Fatal(err)
		}
		auctions[i] = float64(len(res))
		_, reqBytes[i] = allocsAndBytes(5, evalPost(t, d, "POST /v1/eval Q2/QaC+", xmark.QueryQ2()))
	}
	perAuction := (reqBytes[1] - reqBytes[0]) / (auctions[1] - auctions[0])
	t.Logf("POST /v1/eval Q2/QaC+: %.0f B/request over %.0f open auctions, %.0f over %.0f: %.1f B per auction (ceiling %.0f)", reqBytes[0], auctions[0], reqBytes[1], auctions[1], perAuction, perAuctionCeiling)
	if perAuction > perAuctionCeiling {
		t.Errorf("POST /v1/eval Q2/QaC+: %.1f B per open auction, ceiling %.0f", perAuction, perAuctionCeiling)
	}

	// The standing fraud query on a re-announced credit stream, 250
	// charges in (bench/e2e's standing-window shape): one charge — the
	// account's re-announcement, then the transaction — re-runs two
	// versions of the charged account and nothing else — the new version,
	// then the version announcing the transaction; the one whose lifespan
	// the new version closes keeps its output, which observes no stamp —,
	// each read bare and folding the sum from its transactions' kept terms,
	// of which the charge evaluates two (the new transaction's, empty on the
	// re-announcement, full on its arrival), each one bare read under the
	// window's lifespan bound and its /amount: 24 allocations averaged over
	// the next two rounds of the twenty accounts (30 while the unit's read
	// and each term's returned a list of nodes and a sequence of their own;
	// 32 while each unit
	// evaluation copied its FLWOR's result to materialize it; 45 while the unit read its
	// versions stamped and re-ran the closed one; 74 while each term
	// read the transaction stamped and then projected it to the window,
	// formatting both ends of its clipped lifespan to compare them; 310 while every
	// re-run re-crossed, re-projected and re-summed every transaction the
	// version held, 415 while every top a read built cost two allocations
	// and every literal evaluation one, 2 566 while each of the two arrivals
	// re-ran every version of the account, each crossing all its holes;
	// 3 083 while each
	// crossing of $a/transaction built its hole ids through three slices
	// and a set, 3 361 while every hole crossing copied its version group
	// out of the index, 3 417 while each of the two unit evaluations built
	// its own static environment, 4 412 when per-binding decomposition and
	// window-expiry scheduling landed, before comparisons stopped
	// allocating). Without the per-version memo every charge costs about three
	// times the ceiling at this depth, and more with every charge after;
	// without the decomposition every charge re-runs all twenty accounts,
	// without the schedule every tick of the clock does. Without the term
	// memo a charge grows with the account's history: on a stream charged
	// once a second, so that none of its charges leaves the hour's window
	// (a charge that leaves re-runs every version holding it, memo or no
	// memo), the same charge 1 000 charges in must cost within a fifth of
	// what it costs 250 in.
	const fraudCeiling = 27
	got := fraudChargeAllocs(t, 250, 10*time.Second)
	t.Logf("fraud/incremental, 250 re-announced charges: %.0f allocs/charge (ceiling %d)", got, fraudCeiling)
	if got > fraudCeiling {
		t.Errorf("fraud/incremental: %.0f allocs per charge, ceiling %d", got, fraudCeiling)
	}
	// The standing filter query on the same stream: a charge runs the one
	// unit of its transaction, whose pushed filter keeps it, and reads it
	// bare: 7 allocations (9 while the unit's read returned a list of nodes
	// and a sequence of its own, 10 while its evaluation copied its result
	// to materialize it, 13 while the unit read its version stamped).
	const filterCeiling = 8
	got = chargeAllocs(t, creditQueries[1].src, "1 piece (per-binding on transaction)", 250, 10*time.Second)
	t.Logf("filter/incremental, 250 re-announced charges: %.0f allocs/charge (ceiling %d)", got, filterCeiling)
	if got > filterCeiling {
		t.Errorf("filter/incremental: %.0f allocs per charge, ceiling %d", got, filterCeiling)
	}
	shallow, deep := fraudChargeAllocs(t, 250, time.Second), fraudChargeAllocs(t, 1000, time.Second)
	t.Logf("fraud/incremental, one charge a second: %.0f allocs/charge 250 charges in, %.0f 1 000 in", shallow, deep)
	if deep > shallow*1.2 || deep < shallow/1.2 {
		t.Errorf("fraud/incremental: %.0f allocs per charge 1 000 charges in, %.0f 250 in: not flat within 20 %%", deep, shallow)
	}
}

// evalPost returns a POST /v1/eval of src under QaC+ at the evaluation
// instant to an API over d's runtime, through httptest: the request, the
// compile, the evaluation and the body, written by hand.
func evalPost(t *testing.T, d *evalbench.Dataset, name, src string) func() {
	t.Helper()
	api := registry.NewAPI(registry.New(time.Now), d.Runtime.Compile)
	req, err := json.Marshal(map[string]string{"query": src, "mode": "QaC+", "at": evalbench.EvalInstant.Format(time.RFC3339Nano)})
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(req)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", name, rec.Code, rec.Body)
		}
	}
}

// fraudChargeAllocs is what one charge of the standing fraud query costs
// on a re-announced credit stream charged `every` apart, `events` charges
// in, averaged over the next two rounds of the twenty accounts.
func fraudChargeAllocs(t *testing.T, events int, every time.Duration) float64 {
	t.Helper()
	return chargeAllocs(t, creditQueries[2].src, "1 piece (per-binding on account; sum folded over transaction terms)", events, every)
}

// chargeAllocs is what one charge of the standing query src, whose
// strategy must be strategy, costs on a re-announced credit stream charged
// `every` apart, `events` charges in, averaged over the next two rounds of
// the twenty accounts.
func chargeAllocs(t *testing.T, src, strategy string, events int, every time.Duration) float64 {
	t.Helper()
	cs := newCreditStanding(t, src, events, every)
	if s := cs.reg.Strategy(); s != strategy {
		t.Fatalf("%s: strategy %s, want %s", src, s, strategy)
	}
	charges := cs.charges(41)
	next := 0
	return testing.AllocsPerRun(len(charges)-1, func() {
		if err := cs.arrive(charges[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
}

// TestRegistryArrivalAllocationCeiling is the registry's part of `make
// alloc-gate`: bench/e2e's ingest-fanout shape — 64 standing
// registrations of the pass-through query, 32 spelled "QaC+" and 32
// "QaC++", which parses as QaC+, so one sharing group (the stores and
// limits are the same) with one engine — 200 charges in. An arrival
// allocates for what it delivers, not for the machinery around the
// delivery: the pass, the stats an advance counts into and the evaluation
// frame are owned by the group, the engine share and the engine, and the
// serial an engine diffs an item by is the string the frame is written
// from. So
//
//   - a transaction costs the version read (its top element and that
//     one's attributes), its entries, the serial in one allocation of its
//     size, and the delta and serials a delivery carries: 9 allocations and
//     536 B (11 and 560 B while the read returned a slice of its own and the
//     unit bound its versions in a sequence of its own; 14 and 688 B while the
//     "QaC++" half was a plan and an engine of its own, 34 and 1 904 B
//     while each plan was a group of its own that evaluated the unit again
//     and a serial grew its buffer, 94 and 8 800 B when every arrival built
//     a pass, a stats struct and a static environment);
//   - an account's re-announcement, which dirties no unit, costs nothing
//     at all (10 allocations and 2 880 B of pure scaffolding before);
//   - a frame written into a buffer that has reached its size costs
//     nothing (12 allocations and 944 B when the codec serialized the item
//     again and went through a WireResult and a json.Encoder).
//
// The ceilings sit ~15 % above: a per-arrival map, stats struct or function
// table coming back goes through them.
func TestRegistryArrivalAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	structure, err := tagstruct.ParseString(genstore.CreditStructure)
	if err != nil {
		t.Fatal(err)
	}
	pub, initial := genstore.NewCreditPublisher(20)
	st := fragment.NewStore(structure)
	if err := st.AddAll(initial); err != nil {
		t.Fatal(err)
	}
	rt := ixcql.NewRuntime()
	rt.RegisterStream("credit", st)
	at := genstore.CreditBase
	r := registry.New(func() time.Time { return at })
	var last registry.Result
	for _, spelling := range []string{"QaC+", "QaC++"} {
		mode, err := ixcql.ParseMode(spelling)
		if err != nil {
			t.Fatal(err)
		}
		for range 32 {
			q, err := rt.Compile(creditQueries[0].src, mode)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Register(q, registry.Options{OnResult: func(res registry.Result) { last = res }}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// one arrival, measured without the store's share of it; the median, so
	// that what a growing store pays now and then — a containment map of
	// the engine's doubling — is not read as the cost of an arrival
	var allocs, bytes [2][]float64 // by fragment of a charge: announcement, transaction
	const warm, runs = 200, 41
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range warm + runs {
		at = genstore.CreditBase.Add(time.Duration(i+1) * 10 * time.Second)
		announce, tx := pub.Charge(i%20, 1+i*37%1000, at)
		for k, f := range []*fragment.Fragment{announce, tx} {
			if err := st.Add(f); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.Apply(f)
			runtime.ReadMemStats(&after)
			if i >= warm {
				allocs[k] = append(allocs[k], float64(after.Mallocs-before.Mallocs))
				bytes[k] = append(bytes[k], float64(after.TotalAlloc-before.TotalAlloc))
			}
		}
		if len(last.Delta) != 1 || len(last.Serials) != 1 || last.Err != nil || last.Degraded != "" {
			t.Fatalf("charge %d delivered %+v, want the one transaction and its serial", i, last)
		}
	}
	if got := r.Stats(); got.Groups != 1 || got.Registrations != 64 {
		t.Fatalf("registry holds %+v, want 64 registrations in 1 group", got)
	}
	frame, err := registry.JSONCodec{}.AppendResult(nil, 1, last)
	if err != nil {
		t.Fatal(err)
	}
	encAllocs, encBytes := allocsAndBytes(200, func() {
		if frame, err = (registry.JSONCodec{}).AppendResult(frame[:0], 1, last); err != nil {
			t.Fatal(err)
		}
	})
	for _, c := range []struct {
		name                           string
		allocs, bytes, maxAllocs, maxB float64
	}{
		{"transaction arrival", median(allocs[1]), median(bytes[1]), 10, 616},
		{"re-announcement that dirties nothing", median(allocs[0]), median(bytes[0]), 2, 64},
		{"steady-state frame encode", encAllocs, encBytes, 0, 0},
	} {
		t.Logf("%s: %.0f allocs, %.0f B (ceilings %.0f, %.0f)", c.name, c.allocs, c.bytes, c.maxAllocs, c.maxB)
		if c.allocs > c.maxAllocs || c.bytes > c.maxB {
			t.Errorf("%s: %.0f allocs and %.0f B, ceilings %.0f and %.0f", c.name, c.allocs, c.bytes, c.maxAllocs, c.maxB)
		}
	}
}

// TestStandingConstructorRetention is the heap a standing constructor query
// keeps for what it has answered, 1 000 charges into the credit stream: its
// unit's version memo keeps every item it has built, splicing the items of
// many evaluations into one result, and an item must keep no more than its
// own element alive — not a chunk of the evaluation that built it, nor its
// dead neighbours. Per standing item, the registration retains 395 B for
// one <t> per transaction and 3 404 B for one <a> per account version
// holding a <t> per transaction of that version; the ceilings sit ~10 %
// above what the two retained while every element was an object of its
// own, 394.9 B and 3 433 B. Part of `make alloc-gate`.
func TestStandingConstructorRetention(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures are not meaningful under the race detector")
	}
	for _, c := range []struct {
		src      string
		strategy string
		ceiling  float64 // retained B per standing item
	}{
		{`for $t in stream("credit")//transaction return <t>{$t/amount/text()}</t>`,
			"1 piece (per-binding on transaction)", 435},
		{`for $a in stream("credit")//account return <a id="{$a/@id}">{for $t in $a/transaction return <t>{$t/amount/text()}</t>}</a>`,
			"1 piece (per-binding on account)", 3_780},
	} {
		cs := newCreditStanding(t, c.src, 0, 10*time.Second)
		if s := cs.reg.Strategy(); s != c.strategy {
			t.Fatalf("%s: strategy %s, want %s", c.src, s, c.strategy)
		}
		for _, charge := range cs.charges(1000) {
			if err := cs.arrive(charge); err != nil {
				t.Fatal(err)
			}
		}
		items := len(cs.reg.ItemsSnapshot())
		with := heapInUse()
		cs.reg.Close()
		cs.reg, cs.r, cs.q = nil, nil, nil
		without := heapInUse()
		runtime.KeepAlive(cs.st)
		per := float64(int64(with)-int64(without)) / float64(items)
		t.Logf("%s: %d standing items, %.0f B retained per item (ceiling %.0f)", c.src, items, per, c.ceiling)
		if items < 1000 {
			t.Fatalf("%s: %d standing items after 1 000 charges", c.src, items)
		}
		if per > c.ceiling {
			t.Errorf("%s: %.0f B retained per standing item, ceiling %.0f", c.src, per, c.ceiling)
		}
	}
}

// heapInUse is the heap in use after a collection.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Explain — and with it Registry.Register, which fingerprints a query by
// its targets — reads its census off the store's index: what it allocates
// does not follow the size of the store, and a write between two calls
// costs the second nothing (a fourth plan's census used to regroup the
// whole log after every Add). Part of `make alloc-gate`.
func TestExplainDoesNotWalkTheStore(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	structure, err := tagstruct.ParseString(genstore.CreditStructure)
	if err != nil {
		t.Fatal(err)
	}
	const query = `for $a in stream("credit")/creditAccounts/account return count($a/transaction[amount > 100])`
	explainAllocs := func(accounts int) (before, after float64) {
		pub, initial := genstore.NewCreditPublisher(accounts)
		st := fragment.NewStore(structure)
		if err := st.AddAll(initial); err != nil {
			t.Fatal(err)
		}
		at := genstore.CreditBase
		charge := func(a int) {
			at = at.Add(time.Minute)
			announce, tx := pub.Charge(a, 150, at)
			if err := st.AddAll([]*fragment.Fragment{announce, tx}); err != nil {
				t.Fatal(err)
			}
		}
		for a := 0; a < accounts; a++ {
			charge(a)
		}
		rt := ixcql.NewRuntime()
		rt.RegisterStream("credit", st)
		q := rt.MustCompile(query, ixcql.QaCPlus)
		if ex := q.Explain(); len(ex.Targets) < 2 || ex.Predicted.FillersScanned != int64(1+2*accounts+accounts) {
			t.Fatalf("%d accounts: explained %v, predicted %d fillers scanned", accounts, ex.Targets, ex.Predicted.FillersScanned)
		}
		before = testing.AllocsPerRun(10, func() { q.Explain() })
		charge(0)
		// the first call after the write, not a warmed-up one
		return before, allocsOnce(func() { q.Explain() })
	}
	small, smallAfterAdd := explainAllocs(20)
	large, largeAfterAdd := explainAllocs(200)
	t.Logf("Explain under QaC+: %.0f allocs on 20 accounts (%.0f after an Add), %.0f on 200 (%.0f)", small, smallAfterAdd, large, largeAfterAdd)
	if small != large || small != smallAfterAdd || large != largeAfterAdd {
		t.Fatalf("Explain allocates %.0f on 20 accounts (%.0f after an Add), %.0f on 200 (%.0f after an Add): it follows the store",
			small, smallAfterAdd, large, largeAfterAdd)
	}
}

// checkBytes holds the heap bytes one run of f allocates, on average over a
// few, to a ceiling; none when it is 0.
func checkBytes(t *testing.T, name, per string, ceiling float64, f func()) {
	t.Helper()
	if ceiling == 0 {
		return
	}
	_, got := allocsAndBytes(5, f)
	t.Logf("%s: %.0f B/%s (ceiling %.0f)", name, got, per, ceiling)
	if got > ceiling {
		t.Errorf("%s: %.0f B/%s, ceiling %.0f", name, got, per, ceiling)
	}
}

// allocsOnce is the allocations of one call of f, with no warm-up run:
// what testing.AllocsPerRun cannot measure, the first call after a write.
func allocsOnce(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

func median(xs []float64) float64 {
	xs = slices.Sorted(slices.Values(xs))
	return xs[len(xs)/2]
}
