package registry

// Admission trips surface as typed OverloadError on the registration that
// hit the cap without wedging the shared group for everyone else. (The
// churn/soak over a faulty wire lives beside the wire, in internal/stream:
// this package sits below it and cannot dial a client.) The fixtures here
// serve the API tests as well.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
)

const churnStructureXML = `<stream:structure>
<tag type="snapshot" id="1" name="log">
  <tag type="event" id="2" name="event"/>
</tag>
</stream:structure>`

func churnStructure(t *testing.T) *tagstruct.Structure {
	t.Helper()
	s, err := tagstruct.ParseString(churnStructureXML)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func churnEl(t *testing.T, src string) *xmldom.Node {
	t.Helper()
	doc, err := xmldom.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc.Root()
}

// Admission trips must be a per-registration typed error, not a group
// failure: with the cap reached, new registrations get OverloadError
// while existing members keep evaluating and delivering.
func TestRegistryAdmissionOverload(t *testing.T) {
	structure := churnStructure(t)
	st := fragment.NewStore(structure)
	base := time.Date(2003, time.June, 1, 0, 0, 0, 0, time.UTC)
	add := func(f *fragment.Fragment) {
		t.Helper()
		if err := st.Add(f); err != nil {
			t.Fatal(err)
		}
	}
	add(fragment.New(0, 1, base, churnEl(t, `<log><hole id="100" tsid="2"/><hole id="101" tsid="2"/></log>`)))
	add(fragment.New(100, 2, base, churnEl(t, `<event>1</event>`)))

	rt := xcql.NewRuntime()
	rt.RegisterStream("log", st)
	q := rt.MustCompile(`for $e in stream("log")//event return $e`, xcql.QaCPlus)

	at := base
	reg := New(func() time.Time { return at })
	reg.SetMaxRegistrations(2)

	var delivered [2]int64
	var live [2]*Registration
	for i := range live {
		i := i
		r, err := reg.Register(q, Options{
			Incremental: true,
			OnResult:    func(Result) { atomic.AddInt64(&delivered[i], 1) },
		})
		if err != nil {
			t.Fatal(err)
		}
		live[i] = r
	}

	// the third registration trips admission with a typed error...
	_, err := reg.Register(q, Options{Incremental: true, OnResult: func(Result) {}})
	var over *xcql.OverloadError
	if !errors.As(err, &over) {
		t.Fatalf("want *xcql.OverloadError, got %v", err)
	}
	if over.Active != 2 || over.Max != 2 {
		t.Fatalf("overload should carry the admission state, got %+v", over)
	}
	if got := reg.Stats().Overloads; got != 1 {
		t.Fatalf("Overloads counter = %d, want 1", got)
	}

	// ...and the shared group keeps flowing for the admitted members
	f := fragment.New(101, 2, base.Add(time.Second), churnEl(t, `<event>2</event>`))
	add(f)
	at = f.ValidTime
	reg.Apply(f)
	for i := range live {
		if atomic.LoadInt64(&delivered[i]) == 0 {
			t.Errorf("admitted registration %d received nothing after the overload trip", i)
		}
		live[i].Close()
	}

	// a slot freed by Close admits again
	if _, err := reg.Register(q, Options{Incremental: true, OnResult: func(Result) {}}); err != nil {
		t.Fatalf("register after slots freed: %v", err)
	}
}
