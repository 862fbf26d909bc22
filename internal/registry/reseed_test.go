package registry

import (
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/inc"
	"xcql/internal/xcql"
	"xcql/internal/xq"
)

// A pending re-emission survives an arrival that fails: B adopts the
// engine A has been advancing, so its first delivery owes it the whole
// standing result; the next arrival errors (a user function that fails
// once — not a governed failure, so nothing is invalidated and nothing
// re-arms the flag); the arrival after that must still hand B everything,
// not the bare delta A gets.
func TestPendingReemissionSurvivesFailedArrival(t *testing.T) {
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
	event := func(fid int) *fragment.Fragment {
		return fragment.New(fid, 2, at, churnEl(t, `<event>`+strconv.Itoa(fid)+`</event>`))
	}

	rt := xcql.NewRuntime()
	rt.RegisterStream("log", st)
	var failNext atomic.Bool
	rt.RegisterFunc("flaky", func(*xq.Context, []xq.Sequence) (xq.Sequence, error) {
		if failNext.CompareAndSwap(true, false) {
			return nil, errors.New("flaky: failed once")
		}
		return xq.Sequence{true}, nil
	})
	q := rt.MustCompile(`for $e in stream("log")//event where flaky() return $e`, xcql.QaCPlus)

	var last [2]Result
	register := func(i int) {
		t.Helper()
		if _, err := r.Register(q, Options{Incremental: true, OnResult: func(res Result) { last[i] = res }}); err != nil {
			t.Fatal(err)
		}
	}
	register(0)
	arrive(fragment.New(0, 1, at, churnEl(t,
		`<log><hole id="100" tsid="2"/><hole id="101" tsid="2"/><hole id="102" tsid="2"/><hole id="103" tsid="2"/></log>`)))
	arrive(event(100))
	arrive(event(101))
	if got := len(last[0].Delta); got != 1 {
		t.Fatalf("A's delta before B joins = %d items, want 1", got)
	}

	register(1)
	failNext.Store(true)
	arrive(event(102))
	if last[0].Err == nil || last[1].Err == nil {
		t.Fatalf("the failing arrival delivered A %+v, B %+v; want the error to both", last[0], last[1])
	}

	arrive(event(103))
	if last[0].Err != nil || last[1].Err != nil {
		t.Fatalf("arrival after the failure: A err %v, B err %v", last[0].Err, last[1].Err)
	}
	// A was emitted 100 and 101 before the failure and is owed the rest
	if got := len(last[0].Delta); got != 2 {
		t.Errorf("A's delta after the failure = %v, want the two events it has not seen", inc.ItemSerials(last[0].Delta))
	}
	// B has been emitted nothing yet and is owed the standing result
	if got := len(last[1].Delta); got != 4 {
		t.Errorf("B's first successful delivery = %v, want all four standing events", inc.ItemSerials(last[1].Delta))
	}
}
