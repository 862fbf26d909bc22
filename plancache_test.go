package xcql_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql"
	"xcql/internal/genstore"
)

// TestPlanCacheBesideALiveRegistration: POST /v1/eval of one text, from
// several goroutines at once, while a registration of that text is live on
// the same engine and fed arrivals. Every request is a hit on the plan the
// registration's compile made, and every body is byte for byte the one a
// fresh engine answers from its first, uncached compile. Run with -race.
func TestPlanCacheBesideALiveRegistration(t *testing.T) {
	const src = `for $t in stream("s")//transaction where $t/amount > 20 return $t`
	pub, frags := genstore.NewCreditPublisher(3)
	for i := 1; i <= 40; i++ {
		announce, tx := pub.Charge(i%3, 10*i, genstore.CreditBase.Add(time.Duration(i)*time.Minute))
		frags = append(frags, announce, tx)
	}
	preload, arrivals := frags[:len(frags)/2], frags[len(frags)/2:]
	// the requests pin an instant before every arrival, so no arrival
	// changes their answer
	at := preload[len(preload)-1].ValidTime
	req := fmt.Sprintf(`{"query":%q,"mode":"QaC+","at":%q}`, src, at.Format(time.RFC3339Nano))
	newEngine := func(fs []*xcql.Fragment) (*xcql.Engine, *xcql.Store) {
		st := xcql.NewStore(xcql.MustParseTagStructure(genstore.CreditStructure))
		for _, f := range fs {
			mustAddT(t, st, f)
		}
		e := xcql.NewEngine()
		e.RegisterStore("s", st)
		return e, st
	}
	post := func(api *xcql.QueryAPI) ([]byte, error) {
		rec := httptest.NewRecorder()
		api.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(req)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("POST /v1/eval: %d %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), nil
	}
	fresh, _ := newEngine(preload)
	want, err := post(fresh.ServeQueryAPI())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte("<transaction")) {
		t.Fatalf("the answer holds no transaction: %s", want)
	}
	whole, _ := newEngine(frags)
	if all, err := post(whole.ServeQueryAPI()); err != nil || !bytes.Equal(all, want) {
		t.Fatalf("the arrivals change the answer at %s (%v):\n%s\nwant\n%s", at, err, all, want)
	}

	e, st := newEngine(preload)
	sink := &xcql.CollectorSink{}
	e.SetTraceSink(sink)
	r := e.Registry()
	now := at
	r.SetClock(func() time.Time { return now }) // read by r.Apply, in the feeder only
	var mu sync.Mutex
	var failures []string
	fail := func(format string, args ...any) {
		mu.Lock()
		failures = append(failures, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	if _, err := r.Register(e.MustCompile(src, xcql.QaCPlus), xcql.RegistryOptions{OnResult: func(res xcql.RegistryResult) {
		if res.Err != nil {
			fail("registration: %v", res.Err)
		}
	}}); err != nil {
		t.Fatal(err)
	}
	api := e.ServeQueryAPI()
	api.SetClock(func() time.Time { return at })

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, f := range arrivals {
			if err := st.Add(f); err != nil {
				fail("arrival: %v", err)
				return
			}
			now = f.ValidTime
			r.Apply(f)
		}
	}()
	const clients, requests = 4, 20
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range requests {
				got, err := post(api)
				if err != nil {
					fail("%v", err)
					return
				}
				if !bytes.Equal(got, want) {
					fail("body differs from a fresh engine's:\n%s\nwant\n%s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, f := range failures {
		t.Error(f)
	}
	parses := 0
	for _, sp := range sink.Spans() {
		if sp.Name == "parse" {
			parses++
		}
	}
	if parses != 1 {
		t.Errorf("%d parse spans for one text: the requests did not share the registration's plan", parses)
	}
}
