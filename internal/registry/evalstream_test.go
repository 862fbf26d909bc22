package registry

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/evalbench"
	"xcql/internal/fragment"
	"xcql/internal/genstore"
	"xcql/internal/xcql"
	"xcql/internal/xmark"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
)

// adhocClasses are the ad hoc classes of the end-to-end benchmark: Figure
// 4's queries and the descendant step QD.
var adhocClasses = []struct{ name, src string }{
	{"Q1", xmark.QueryQ1()},
	{"Q2", xmark.QueryQ2()},
	{"Q5", xmark.QueryQ5()},
	{"QD", `for $c in stream("auction")//closed_auction return $c/price`},
}

var (
	auctionOnce sync.Once
	auction     *evalbench.Dataset
	auctionErr  error
)

// auctionStore is the XMark store at sf 0.02 the ad hoc classes run over,
// built once: 240 open auctions.
func auctionStore(t *testing.T) *evalbench.Dataset {
	t.Helper()
	auctionOnce.Do(func() { auction, auctionErr = evalbench.Build(0.02, false) })
	if auctionErr != nil {
		t.Fatal(auctionErr)
	}
	return auction
}

// postEval posts src under mode at at to api and returns the status and
// the body.
func postEval(t *testing.T, api *API, src, mode string, at time.Time) (int, []byte) {
	t.Helper()
	req, err := json.Marshal(evalRequest{Query: src, Mode: mode, At: at.Format(time.RFC3339Nano)})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(req)))
	return rec.Code, rec.Body.Bytes()
}

// wholeEvalBody is the body of src evaluated whole: appendEvalBody of what
// Eval returns — or, when Eval fails, the error envelope.
func wholeEvalBody(t *testing.T, q *xcql.Query, at time.Time) (int, []byte) {
	t.Helper()
	seq, err := q.Eval(at)
	if err != nil {
		rec := httptest.NewRecorder()
		httpError(rec, http.StatusUnprocessableEntity, "eval", err.Error())
		return rec.Code, rec.Body.Bytes()
	}
	return http.StatusOK, appendEvalBody(nil, at, seq)
}

// checkStreamedBody fails unless POST /v1/eval answers src under mode at
// at with the status and bytes of the whole evaluation.
func checkStreamedBody(t *testing.T, api *API, rt *xcql.Runtime, src string, mode xcql.Mode, at time.Time) {
	t.Helper()
	code, body := postEval(t, api, src, mode.String(), at)
	wantCode, want := wholeEvalBody(t, rt.MustCompile(src, mode), at)
	if code != wantCode || !bytes.Equal(body, want) {
		t.Fatalf("%s under %s at %s: %d %q\nwant %d %q", src, mode, at.Format(time.RFC3339), code, body, wantCode, want)
	}
}

// The body POST /v1/eval writes as the evaluation yields its items is the
// body of the result evaluated whole, byte for byte: for the ad hoc classes
// under QaC+, and for every generated query at every instant of its
// history, on generated stores — with re-announced parents, whose holes
// the result fills item by item — and on a credit store.
func TestEvalBodyStreamsTheEvaluation(t *testing.T) {
	ds := auctionStore(t)
	api := NewAPI(New(nil), ds.Runtime.Compile)
	for _, c := range adhocClasses {
		checkStreamedBody(t, api, ds.Runtime, c.src, xcql.QaCPlus, evalbench.EvalInstant)
	}
	generated := 0
	for seed := int64(1); seed <= 4; seed++ {
		for _, reannounce := range []bool{false, true} {
			ins, err := genstore.Generate(genstore.Profile{Seed: seed, Reannounce: reannounce})
			if err != nil {
				t.Fatal(err)
			}
			st, err := ins.NewStore()
			if err != nil {
				t.Fatal(err)
			}
			rt := xcql.NewRuntime()
			rt.RegisterStream("s", st)
			api := NewAPI(New(nil), rt.Compile)
			for _, q := range ins.Queries {
				for _, at := range ins.Instants {
					checkStreamedBody(t, api, rt, q.Src, xcql.QaCPlus, at)
					generated++
				}
			}
		}
	}
	t.Logf("%d generated query-instant pairs", generated)
	structure, frags := creditCharges(30)
	st := fragment.NewStore(structure)
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("s", st)
	api = NewAPI(New(nil), rt.Compile)
	at := frags[len(frags)-1].ValidTime
	for _, src := range []string{
		`for $a in stream("s")//account return $a`,
		`for $a in stream("s")//account return <a>{$a}</a>`,
		`stream("s")//account`,
		`for $a in stream("s")//account where sum($a/transaction?[now-PT1H,now]/amount) >= 50 return $a/@id`,
		`for $t in stream("s")//transaction where $t/amount > 100 return $t/amount`,
	} {
		for _, mode := range []xcql.Mode{xcql.CaQ, xcql.QaC, xcql.QaCPlus} {
			checkStreamedBody(t, api, rt, src, mode, at)
		}
	}
}

// A re-announced account comes out of its read holding holes, and the
// streamed body fills them item by item as materializeResult fills them.
func TestStreamedItemsAreFilled(t *testing.T) {
	structure, frags := creditCharges(12)
	st := fragment.NewStore(structure)
	if err := st.AddAll(frags); err != nil {
		t.Fatal(err)
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("s", st)
	at := frags[len(frags)-1].ValidTime
	const src = `for $a in stream("s")//account return $a`
	raw, err := rt.MustCompile(src, xcql.QaCPlus).EvalRaw(at)
	if err != nil {
		t.Fatal(err)
	}
	holes := 0
	for _, it := range raw {
		it.(*xmldom.Node).Walk(func(n *xmldom.Node) bool {
			if fragment.IsHole(n) {
				holes++
			}
			return true
		})
	}
	if holes == 0 {
		t.Fatalf("%s: the raw result holds no hole to fill", src)
	}
	code, body := postEval(t, NewAPI(New(nil), rt.Compile), src, "QaC+", at)
	if code != http.StatusOK || strings.Contains(string(body), "<hole") {
		t.Fatalf("%s: %d %s", src, code, body)
	}
	checkStreamedBody(t, NewAPI(New(nil), rt.Compile), rt, src, xcql.QaCPlus, at)
}

// A budget that trips in the middle of Q2's FLWOR, after some of its items
// were yielded, answers with the error the whole evaluation returns and no
// partial body; the API's next request, Q1's, is answered whole.
func TestEvalBudgetTripMidFLWOR(t *testing.T) {
	ds := auctionStore(t)
	at := evalbench.EvalInstant
	src := xmark.QueryQ2()
	full := ds.Runtime.MustCompile(src, xcql.QaCPlus)
	seq, err := full.Eval(at)
	if err != nil {
		t.Fatal(err)
	}
	// short of the items the whole evaluation charges by fewer than its
	// returns: the trip comes after the first of them was yielded
	lim := xcql.Limits{MaxItems: full.LastStats().Items - int64(len(seq))/2}
	limited := func(src string, mode xcql.Mode) (*xcql.Query, error) {
		q, err := ds.Runtime.Compile(src, mode)
		if q != nil {
			q.Limits = lim
		}
		return q, err
	}
	q, _ := limited(src, xcql.QaCPlus)
	yielded := 0
	if err := q.EvalEach(t.Context(), at, lim, func(xq.Item) error { yielded++; return nil }); err == nil || yielded == 0 || yielded >= len(seq) {
		t.Fatalf("MaxItems %d: %d of %d items yielded before %v: not a trip mid-FLWOR", lim.MaxItems, yielded, len(seq), err)
	}
	api := NewAPI(New(nil), limited)
	code, body := postEval(t, api, src, "QaC+", at)
	wantCode, want := wholeEvalBody(t, q, at)
	if wantCode != http.StatusUnprocessableEntity || code != wantCode || !bytes.Equal(body, want) {
		t.Fatalf("tripped: %d %s\nwant %d %s", code, body, wantCode, want)
	}
	checkStreamedBody(t, api, ds.Runtime, adhocClasses[0].src, xcql.QaCPlus, at)
}

// Requests at once each write their own body: four goroutines posting Q2
// and QD to one API get their reference bodies, the API's kept buffer lent
// to one of them at a time.
func TestConcurrentEvalBodies(t *testing.T) {
	ds := auctionStore(t)
	at := evalbench.EvalInstant
	api := NewAPI(New(nil), ds.Runtime.Compile)
	srcs := []string{adhocClasses[1].src, adhocClasses[3].src}
	want := make([][]byte, len(srcs))
	for i, src := range srcs {
		_, want[i] = wholeEvalBody(t, ds.Runtime.MustCompile(src, xcql.QaCPlus), at)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := g % len(srcs)
			for range 10 {
				req, _ := json.Marshal(evalRequest{Query: srcs[i], Mode: "QaC+", At: at.Format(time.RFC3339Nano)})
				rec := httptest.NewRecorder()
				api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(req)))
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want[i]) {
					errs <- srcs[i] + ": " + rec.Body.String()
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
