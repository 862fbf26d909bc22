package stream

import (
	"net"
	"sync"
	"testing"
	"time"

	"xcql/internal/fragment"
)

// TestPublishEncodesOncePerFragment: with a durable log and K connections
// attached, a published fragment is encoded once — in Publish, after the
// seq is stamped — and the log and every connection are handed that one
// encoding; the replay window and in-process subscribers get the fragment
// without it.
func TestPublishEncodesOncePerFragment(t *testing.T) {
	const conns, frags = 8, 20
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	log := &flakyLog{}
	s.AttachDurable(log)
	var wires []*Subscription
	for range conns {
		sub, _ := s.subscribeWire(frags+1, 0)
		wires = append(wires, sub)
	}
	inproc := s.Subscribe(frags+1, false)

	s.Publish(rootFragment())
	for i := 1; i <= frags; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	s.Sync()

	// free to read: a sealed fragment's String hands out the attached
	// bytes, an unsealed one encodes
	encodes := func(f *fragment.Fragment) bool {
		return testing.AllocsPerRun(10, func() { _ = f.String() }) > 0
	}
	for k, logged := range log.frames {
		if encodes(logged) {
			t.Fatalf("seq %d: the durable log was handed a fragment without its wire form", logged.Seq)
		}
		want := logged.WithSeq(logged.Seq).String() // an unsealed copy encodes afresh
		if logged.String() != want {
			t.Fatalf("seq %d: sealed bytes %q, a fresh encoding gives %q", logged.Seq, logged, want)
		}
		for _, sub := range wires {
			if got := <-sub.C(); got != logged {
				t.Fatalf("seq %d: a connection got its own fragment (%p), not the one the log framed (%p)", logged.Seq, got, logged)
			}
		}
		got := <-inproc.C()
		if got.Seq != logged.Seq || !encodes(got) {
			t.Fatalf("seq %d: the in-process subscriber got seq %d, sealed=%v", logged.Seq, got.Seq, !encodes(got))
		}
		if h := s.History()[k]; h != got {
			t.Fatalf("seq %d: the replay window holds a different fragment than in-process subscribers get", logged.Seq)
		}
	}
	if len(log.frames) != frags+1 {
		t.Fatalf("log holds %d frames, want %d", len(log.frames), frags+1)
	}

	// nobody to write bytes: no encoding at all
	for _, sub := range wires {
		sub.Cancel()
	}
	s.AttachDurable(nil)
	s.Publish(eventFragment(frags+1, "2003-01-02T00:00:00", "v"))
	if got := <-inproc.C(); !encodes(got) {
		t.Fatal("a publish with no log and no connection still made a wire form")
	}
}

// TestConnectionsWriteTheSealedBytes drives the same property through real
// sockets: what K clients decode is what the server published, frame for
// frame, and the bytes on every socket are the bytes the log framed.
func TestConnectionsWriteTheSealedBytes(t *testing.T) {
	const conns, frags = 4, 30
	s := NewServer("sensors", sensorStructure(t))
	defer s.Close()
	log := &flakyLog{}
	s.AttachDurable(log)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() { _ = ServeTCP(s, ln) }()

	var clients []*Client
	var mu sync.Mutex
	got := make([][]string, conns) // what each client decoded, re-encoded
	for k := range conns {
		c, err := Dial(ln.Addr().String(), DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.OnFragment(func(f *fragment.Fragment) {
			mu.Lock()
			got[k] = append(got[k], f.String())
			mu.Unlock()
		})
		clients = append(clients, c)
	}
	if !waitFor(t, 2*time.Second, func() bool { return s.Stats().Subscribers == conns }) {
		t.Fatalf("%d of %d connections subscribed", s.Stats().Subscribers, conns)
	}
	s.Publish(rootFragment())
	for i := 1; i <= frags; i++ {
		s.Publish(eventFragment(i, "2003-01-02T00:00:00", "v"))
	}
	for k, c := range clients {
		if !waitFor(t, 5*time.Second, func() bool {
			mu.Lock()
			defer mu.Unlock()
			return len(got[k]) == frags+1
		}) {
			t.Fatalf("client %d saw %d of %d fragments (%+v)", k, c.Store().Len(), frags+1, c.Stats())
		}
		mu.Lock()
		for i, wire := range got[k] {
			if want := log.frames[i].String(); wire != want {
				t.Fatalf("client %d frame %d decoded as %s, the log framed %s", k, i, wire, want)
			}
		}
		mu.Unlock()
	}
}
