package stream

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
	"xcql/internal/tagstruct"
	"xcql/internal/xcql"
	"xcql/internal/xmldom"
	"xcql/internal/xq"
	"xcql/internal/xtime"
)

const sensorWire = `<stream:structure>
<tag type="snapshot" id="1" name="sensors">
  <tag type="event" id="2" name="event">
    <tag type="snapshot" id="3" name="value"/>
  </tag>
</tag>
</stream:structure>`

func sensorStructure(t testing.TB) *tagstruct.Structure {
	t.Helper()
	s, err := tagstruct.ParseString(sensorWire)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func ts(s string) time.Time {
	t, err := time.Parse(xtime.Layout, s)
	if err != nil {
		panic(err)
	}
	return t.UTC()
}

func rootFragment() *fragment.Fragment {
	el := xmldom.MustParseString(`<sensors><hole id="1" tsid="2"/></sensors>`).Root()
	return fragment.New(fragment.RootFillerID, 1, ts("2003-01-01T00:00:00"), el)
}

func eventFragment(id int, at, val string) *fragment.Fragment {
	el := xmldom.MustParseString(`<event><value>` + val + `</value></event>`).Root()
	return fragment.New(id, 2, ts(at), el)
}

func TestBrokerMulticast(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	a := s.Subscribe(16, false)
	b := s.Subscribe(16, false)
	s.Publish(rootFragment())
	for _, sub := range []*Subscription{a, b} {
		select {
		case f := <-sub.C():
			if f.FillerID != fragment.RootFillerID {
				t.Fatal("wrong fragment")
			}
		case <-time.After(time.Second):
			t.Fatal("subscriber did not receive")
		}
	}
}

func TestLateJoinerCatchUp(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "42"))
	sub := s.Subscribe(16, true)
	var got []*fragment.Fragment
	for len(got) < 2 {
		select {
		case f := <-sub.C():
			got = append(got, f)
		case <-time.After(time.Second):
			t.Fatalf("catch-up delivered %d fragments", len(got))
		}
	}
	if got[0].FillerID != fragment.RootFillerID {
		t.Fatal("history out of order")
	}
	// no catch-up when disabled
	fresh := s.Subscribe(16, false)
	select {
	case f := <-fresh.C():
		t.Fatalf("unexpected replay: %v", f)
	default:
	}
}

func TestSlowSubscriberDrops(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	sub := s.Subscribe(1, false)
	defer sub.Cancel()
	for i := 0; i < 5; i++ {
		s.Publish(eventFragment(i+1, "2003-01-02T00:00:00", "x"))
	}
	if got := s.Stats().Dropped; got != 4 {
		t.Fatalf("dropped = %d, want 4 (no acks, no retransmission)", got)
	}
}

func TestSubscriptionCancel(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	sub := s.Subscribe(1, false)
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel should be closed")
	}
	s.Publish(rootFragment()) // must not panic
}

func TestServerClose(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	sub := s.Subscribe(1, false)
	s.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("close should close subscriptions")
	}
	// subscribing after close yields a closed channel
	late := s.Subscribe(1, false)
	if _, ok := <-late.C(); ok {
		t.Fatal("late subscription should be closed")
	}
}

func TestClientApplyAndListeners(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	var notified int
	c.OnFragment(func(*fragment.Fragment) { notified++ })
	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "42"))
	if notified != 2 {
		t.Fatalf("notified = %d", notified)
	}
	if c.Store().Len() != 2 {
		t.Fatalf("store len = %d", c.Store().Len())
	}
	// malformed fragment is recorded, not fatal, and does not notify
	c.Apply(fragment.New(9, 99, ts("2003-01-02T00:00:00"), xmldom.NewElement("x")))
	if len(c.Errs()) != 1 || notified != 2 {
		t.Fatalf("errs = %v notified = %d", c.Errs(), notified)
	}
}

func TestEndToEndInProcess(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()
	sub := s.Subscribe(64, true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Consume(sub)
	}()

	s.Publish(rootFragment())
	for i := 1; i <= 10; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	s.Close()
	wg.Wait()
	if c.Store().Len() != 11 {
		t.Fatalf("store len = %d", c.Store().Len())
	}
}

func TestTCPTransport(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	s.Publish(rootFragment())
	s.Publish(eventFragment(1, "2003-01-02T00:00:00", "41"))

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = ServeTCP(s, ln) }()

	c, err := DialTCP(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Name() != "sensors" {
		t.Fatalf("name = %q", c.Name())
	}
	// structure arrived via handshake
	if c.Store().Structure().Root.Name != "sensors" {
		t.Fatal("structure not delivered")
	}
	// publish after connect too
	s.Publish(eventFragment(2, "2003-01-03T00:00:00", "42"))
	deadline := time.After(3 * time.Second)
	for c.Store().Len() < 3 {
		select {
		case <-deadline:
			t.Fatalf("store len = %d after timeout; errs = %v", c.Store().Len(), c.Errs())
		case <-time.After(5 * time.Millisecond):
		}
	}
	// the received fragments query correctly end to end
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`count(stream("sensors")//event)`, xcql.QaCPlus)
	seq, err := q.Eval(ts("2003-02-01T00:00:00"))
	if err != nil {
		t.Fatal(err)
	}
	if xq.StringValue(seq[0]) != "2" {
		t.Fatalf("events = %v", seq[0])
	}
}

func TestTCPBadAddress(t *testing.T) {
	if _, err := DialTCP("127.0.0.1:1"); err == nil {
		t.Fatal("expected connection error")
	}
}

func TestContinuousQueryDeltas(t *testing.T) {
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	c := NewClient("sensors", s.Structure())
	defer c.Close()

	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`for $e in stream("sensors")//event where $e/value > 40 return $e/value`, xcql.QaCPlus)

	var mu sync.Mutex
	var results []Result
	cq := NewContinuousQuery(q, func(r Result) {
		mu.Lock()
		results = append(results, r)
		mu.Unlock()
	})
	clock := ts("2003-06-01T00:00:00")
	cq.Clock = func() time.Time { return clock }
	cq.Attach(c)

	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "35")) // below threshold
	c.Apply(eventFragment(2, "2003-01-03T00:00:00", "41"))
	c.Apply(eventFragment(3, "2003-01-04T00:00:00", "55"))

	mu.Lock()
	defer mu.Unlock()
	if len(results) != 4 {
		t.Fatalf("evaluations = %d", len(results))
	}
	// nothing new on the first two arrivals
	if len(results[0].Delta) != 0 || len(results[1].Delta) != 0 {
		t.Fatalf("early deltas = %v %v", results[0].Delta, results[1].Delta)
	}
	if strings.Join(xq.Strings(results[2].Delta), ",") != "41" {
		t.Fatalf("delta 3 = %v", results[2].Delta)
	}
	if strings.Join(xq.Strings(results[3].Delta), ",") != "55" {
		t.Fatalf("delta 4 = %v", results[3].Delta)
	}
	// the standing result accumulates
	if got := cq.ItemsSnapshot(); len(got) != 2 {
		t.Fatalf("items = %v", got)
	}
}

func TestContinuousQueryResetDelta(t *testing.T) {
	c := NewClient("sensors", sensorStructure(t))
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`stream("sensors")//event/value`, xcql.QaC)
	var last Result
	cq := NewContinuousQuery(q, func(r Result) { last = r })
	cq.Clock = func() time.Time { return ts("2003-06-01T00:00:00") }
	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T00:00:00", "42"))
	if err := cq.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if len(last.Delta) != 1 {
		t.Fatalf("first delta = %v", last.Delta)
	}
	if err := cq.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if len(last.Delta) != 0 {
		t.Fatal("repeat evaluation should be delta-empty")
	}
	cq.ResetDelta()
	if err := cq.Evaluate(); err != nil {
		t.Fatal(err)
	}
	if len(last.Delta) != 1 {
		t.Fatal("reset should replay deltas")
	}
}

func TestContinuousTimeWindowSlides(t *testing.T) {
	// a ?[now-PT1H,now] window excludes events as the clock advances
	c := NewClient("sensors", sensorStructure(t))
	rt := xcql.NewRuntime()
	rt.RegisterStream("sensors", c.Store())
	q := rt.MustCompile(`count(stream("sensors")//event?[now-PT1H,now])`, xcql.QaCPlus)

	c.Apply(rootFragment())
	c.Apply(eventFragment(1, "2003-01-02T10:00:00", "a"))
	c.Apply(eventFragment(2, "2003-01-02T10:30:00", "b"))

	counts := map[string]string{
		"2003-01-02T10:31:00": "2",
		"2003-01-02T11:15:00": "1", // the 10:00 event slid out
		"2003-01-02T12:00:00": "0",
	}
	for atStr, want := range counts {
		seq, err := q.Eval(ts(atStr))
		if err != nil {
			t.Fatal(err)
		}
		if got := xq.StringValue(seq[0]); got != want {
			t.Errorf("at %s: count = %s, want %s", atStr, got, want)
		}
	}
}
