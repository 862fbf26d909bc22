package registry

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/inc"
	"xcql/internal/xcql"
)

// The members of an engine share consume one advance: each gets the delta
// with the serials the engine diffed by — the same strings, not a
// serialization per member — and each one's LastStats shows what that
// advance cost, as a copy: the share counts the next arrival into the same
// storage, and neither a snapshot taken earlier nor a reader racing the
// arrival may see that.
func TestShareMembersGetOneAdvance(t *testing.T) {
	st := fragment.NewStore(churnStructure(t))
	at := time.Date(2003, time.June, 1, 0, 0, 0, 0, time.UTC)
	r := New(func() time.Time { return at })
	arrive := func(f *fragment.Fragment) {
		t.Helper()
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
		r.Apply(f)
	}
	rt := xcql.NewRuntime()
	rt.RegisterStream("log", st)
	var queries [3]*xcql.Query
	var last [3]Result
	for i := range queries {
		queries[i] = rt.MustCompile(`for $e in stream("log")//event return $e`, xcql.QaCPlus)
		if _, err := r.Register(queries[i], Options{Incremental: true, OnResult: func(res Result) { last[i] = res }}); err != nil {
			t.Fatal(err)
		}
	}
	root := `<log>`
	for fid := 100; fid < 140; fid++ {
		root += `<hole id="` + strconv.Itoa(fid) + `" tsid="2"/>`
	}
	arrive(fragment.New(0, 1, at, churnEl(t, root+`</log>`)))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // under -race: LastStats beside the arrivals that count into the share's scratch
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := queries[2].LastStats(); s.HandlerInvocations > 1 {
					t.Errorf("a reader saw %d handler runs in one advance", s.HandlerInvocations)
					return
				}
			}
		}
	}()
	for fid := 100; fid < 140; fid++ {
		arrive(fragment.New(fid, 2, at, churnEl(t, `<event>`+strconv.Itoa(fid)+`</event>`)))
		for i := range last {
			if len(last[i].Delta) != 1 || len(last[i].Serials) != 1 || last[i].Serials[0] != inc.ItemSerial(last[i].Delta[0]) {
				t.Fatalf("member %d got delta %v serials %q, want the one event", i, last[i].Delta, last[i].Serials)
			}
			if &last[i].Serials[0] != &last[0].Serials[0] {
				t.Fatalf("member %d was handed serials of its own", i)
			}
			if s := queries[i].LastStats(); s.Plan != "QaC++inc" || s.HandlerInvocations != 1 || s.BufferedItems != int64(fid-99) {
				t.Fatalf("member %d's LastStats after event %d: %s", i, fid, s.String())
			}
		}
	}
	close(stop)
	wg.Wait()

	before := queries[1].LastStats()
	r.Apply(nil) // nothing is dirty: the advance costs no handler run
	if s := queries[1].LastStats(); s.HandlerInvocations != 0 || s.Plan != "QaC++inc" {
		t.Fatalf("LastStats after an idle advance: %s", s.String())
	}
	if before.HandlerInvocations != 1 {
		t.Fatalf("a snapshot taken before the next arrival changed under it: %s", before.String())
	}
	if got := r.Groups()[0].Stats.HandlerInvocations; got != 40 {
		t.Fatalf("the group counted %d handler runs over 40 events", got)
	}
}
